package srm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
)

func fullSort(t testing.TB, sys *pdisk.System, all []record.Record, load, r int, placement runio.Placement) (*runio.Run, SortStats) {
	t.Helper()
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	formed, err := runform.MemoryLoad[record.Record](sys, file, load, placement, 0)
	if err != nil {
		t.Fatal(err)
	}
	final, stats, _, err := SortRunsOpts[record.Record](sys, formed.Runs, r, placement, formed.NextSeq, SortOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return final, stats
}

func verifySorted(t testing.TB, sys *pdisk.System, final *runio.Run, all []record.Record) {
	t.Helper()
	got, err := runio.ReadAll[record.Record](sys, final)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("final run has %d records, want %d", len(got), len(all))
	}
	if !record.IsSortedRecords(got) {
		t.Fatal("final run not sorted")
	}
	if record.Checksum(got) != record.Checksum(all) {
		t.Fatal("final run is not a permutation of the input")
	}
}

func TestSortRunsMultiPass(t *testing.T) {
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(20)
	all := g.Random(4000)
	// load 100 -> 40 runs; R=4 -> passes: 40 -> 10 -> 3 -> 1 (3 passes,
	// with one singleton passthrough in pass 3).
	final, stats := fullSort(t, sys, all, 100, 4, runio.StaggeredPlacement{D: 4})
	verifySorted(t, sys, final, all)
	if stats.MergePasses != 3 {
		t.Fatalf("merge passes = %d, want 3", stats.MergePasses)
	}
}

func TestSortRunsRandomPlacement(t *testing.T) {
	sys := newSys(t, 5, 4)
	g := record.NewGenerator(21)
	all := g.Random(2500)
	pl := &runio.RandomPlacement{D: 5, Rng: rand.New(rand.NewSource(77))}
	final, _ := fullSort(t, sys, all, 128, 6, pl)
	verifySorted(t, sys, final, all)
}

func TestSortRunsSingleRunInput(t *testing.T) {
	sys := newSys(t, 2, 4)
	g := record.NewGenerator(22)
	all := g.Random(64)
	final, stats := fullSort(t, sys, all, 1000, 4, runio.StaggeredPlacement{D: 2})
	verifySorted(t, sys, final, all)
	if stats.MergePasses != 0 || stats.Merges != 0 {
		t.Fatalf("single-run input did %d passes / %d merges", stats.MergePasses, stats.Merges)
	}
}

func TestSortRunsFreesInputRuns(t *testing.T) {
	store := pdisk.NewMemStore()
	sys, err := pdisk.NewSystem(pdisk.Config{D: 3, B: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	g := record.NewGenerator(23)
	all := g.Random(900)
	final, _ := fullSort(t, sys, all, 90, 3, runio.StaggeredPlacement{D: 3})
	verifySorted(t, sys, final, all)
	// Only the final run should remain: run formation frees the input
	// file as it reads it, and each merge frees its inputs' blocks as it
	// drains them.
	if got, want := len(store.Blocks()), final.NumBlocks(); got != want {
		t.Fatalf("%d blocks resident after sort, want the final run's %d (inputs not freed?)", got, want)
	}
}

func TestSortRunsRejectsBadOrder(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(24)
	runs := g.SplitIntoSortedRuns(g.Random(20), 2)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	if _, _, _, err := SortRunsOpts[record.Record](sys, descs, 1, runio.StaggeredPlacement{D: 2}, 0, SortOpts{}); err == nil {
		t.Fatal("merge order 1 accepted")
	}
	if _, _, _, err := SortRunsOpts[record.Record](sys, nil, 2, runio.StaggeredPlacement{D: 2}, 0, SortOpts{}); err == nil {
		t.Fatal("no runs accepted")
	}
}

func TestSortWriteOpsMatchPassCount(t *testing.T) {
	// Every merge pass writes each record exactly once with perfect
	// parallelism, so total merge write ops ~= passes * N/(DB) (up to
	// per-run stripe rounding).
	d, b := 4, 4
	sys := newSys(t, d, b)
	g := record.NewGenerator(25)
	n := 4096
	all := g.Random(n)
	_, stats := fullSort(t, sys, all, 128, 4, runio.StaggeredPlacement{D: d})
	perPass := int64(n / (d * b))
	min := stats.WriteOps >= int64(stats.MergePasses)*perPass
	max := stats.WriteOps <= int64(stats.MergePasses)*(perPass+int64(stats.Merges))
	if !min || !max {
		t.Fatalf("write ops %d outside [%d, %d] for %d passes",
			stats.WriteOps, int64(stats.MergePasses)*perPass,
			int64(stats.MergePasses)*(perPass+int64(stats.Merges)), stats.MergePasses)
	}
}

func TestPropertyFullSort(t *testing.T) {
	f := func(seed int64, dRaw, bRaw, rRaw uint8, staggered bool) bool {
		d := int(dRaw)%5 + 1
		b := int(bRaw)%4 + 1
		r := int(rRaw)%5 + 2
		g := record.NewGenerator(seed)
		n := int(uint16(seed)) % 1500
		all := g.Random(n)
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
		if err != nil {
			return false
		}
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			return false
		}
		var pl runio.Placement = &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(seed))}
		if staggered {
			pl = runio.StaggeredPlacement{D: d}
		}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 64, pl, 0)
		if err != nil {
			return false
		}
		if len(formed.Runs) == 0 {
			return n == 0
		}
		final, _, _, err := SortRunsOpts[record.Record](sys, formed.Runs, r, pl, formed.NextSeq, SortOpts{})
		if err != nil {
			return false
		}
		got, err := runio.ReadAll[record.Record](sys, final)
		if err != nil {
			return false
		}
		return record.IsSortedRecords(got) && record.Checksum(got) == record.Checksum(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
