package dsm

import (
	"slices"
	"testing"
	"testing/quick"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

func newSys(t testing.TB, d, b int) *pdisk.System {
	t.Helper()
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRunsLieStriped: DSM's runs — formed or merged — are runio runs
// whose block i sits on disk i mod D, as the stored blocks confirm, so a
// stripe of D blocks is one logical block, written in one operation.
func TestRunsLieStriped(t *testing.T) {
	// One run, written alone: DB = 8, so 17 records are 9 blocks, two
	// full stripes and a partial one of one block.
	sys := newSys(t, 4, 2)
	recs := record.NewGenerator(1).Sorted(17)
	run, err := runio.WriteRun(sys, 0, 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := stripes(run); got != 3 {
		t.Fatalf("stripes = %d, want 3", got)
	}
	if ops := sys.Stats().WriteOps; ops != 3 {
		t.Fatalf("write ops = %d, want 3", ops)
	}
	checkStriped(t, sys, run, recs)

	// Every run of whole sorts, formed and merged.
	for _, d := range []int{1, 2, 3, 4, 8} {
		sys := newSys(t, d, 3)
		all := record.NewGenerator(int64(d)).Random(1500)
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 70, atDiskZero, 0)
		if err != nil {
			t.Fatal(err)
		}
		check := func(runs []*runio.Run) {
			for _, run := range runs {
				got, err := runio.ReadAll[record.Record](sys, run)
				if err != nil {
					t.Fatal(err)
				}
				checkStriped(t, sys, run, got)
			}
		}
		check(formed.Runs)
		opts := srm.SortOpts{AfterPass: func(_ int, survivors []*runio.Run, _ int) error {
			check(survivors)
			return nil
		}}
		if _, _, _, err := srm.SortRunsWith(sys, formed.Runs, 4, atDiskZero, formed.NextSeq, opts, Merge[record.Record](sys, false)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkStriped checks that run, holding recs, starts on disk 0 and that
// the block stored on disk i mod D at block i's index holds block i's
// records.
func checkStriped(t *testing.T, sys *pdisk.System, run *runio.Run, recs []record.Record) {
	t.Helper()
	if run.StartDisk != 0 {
		t.Fatalf("run %d starts on disk %d", run.ID, run.StartDisk)
	}
	b := sys.B()
	for i := 0; i < run.NumBlocks(); i++ {
		addr := pdisk.BlockAddr{Disk: i % sys.D(), Index: run.Addr(i).Index}
		blks, err := sys.ReadBlocks([]pdisk.BlockAddr{addr})
		if err != nil {
			t.Fatalf("run %d block %d at %v: %v", run.ID, i, addr, err)
		}
		got, want := pdisk.RecsOf[record.Record](blks[0]), recs[i*b:min((i+1)*b, len(recs))]
		if !slices.Equal(got, want) {
			t.Fatalf("run %d block %d at %v holds %v, want %v", run.ID, i, addr, got, want)
		}
	}
}

// stripes returns the number of stripes (logical blocks) of run.
func stripes(run *runio.Run) int { return (run.NumBlocks() + run.D - 1) / run.D }

func TestMergeCorrectAndCounted(t *testing.T) {
	sys := newSys(t, 3, 4)
	g := record.NewGenerator(2)
	all := g.Random(500)
	pieces := g.SplitIntoSortedRuns(all, 5)
	var runs []*runio.Run
	totalStripes := 0
	for i, p := range pieces {
		run, err := runio.WriteRun(sys, i, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		totalStripes += stripes(run)
	}
	out, ms, _, err := srm.SortRunsWith(sys, runs, len(runs), atDiskZero, 99, srm.SortOpts{}, Merge[record.Record](sys, false))
	if err != nil {
		t.Fatal(err)
	}
	if ms.Merges != 1 {
		t.Fatalf("%d merges, want one", ms.Merges)
	}
	if ms.ReadOps != int64(totalStripes) {
		t.Fatalf("merge read ops = %d, want exactly the %d input logical blocks",
			ms.ReadOps, totalStripes)
	}
	if ms.WriteOps != int64(stripes(out)) {
		t.Fatalf("merge write ops = %d, want %d output logical blocks",
			ms.WriteOps, stripes(out))
	}
	got, err := runio.ReadAll[record.Record](sys, out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("DSM merge output wrong")
	}
}

// TestMergeKeepsMaxKeyRecords: 2^64−1 is a legal key inside a merge, so a
// run whose head record or refilled logical block starts with it stays in
// the tournament until its records are out.
func TestMergeKeepsMaxKeyRecords(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(3)
	all := g.Random(300)
	for i := 0; i < len(all); i += 7 {
		all[i].Key = record.MaxKey
	}
	var runs []*runio.Run
	for i, p := range g.SplitIntoSortedRuns(all, 4) {
		run, err := runio.WriteRun(sys, i, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	out, _, _, err := srm.SortRunsWith(sys, runs, len(runs), atDiskZero, 99, srm.SortOpts{}, Merge[record.Record](sys, false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[record.Record](sys, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("merged %d of %d records", len(got), len(all))
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("DSM merge output is not a sorted permutation of the input")
	}
}

func TestSortEndToEnd(t *testing.T) {
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(3)
	all := g.Random(3000)
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	res, err := sortFile(sys, file, 100, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[record.Record](sys, res.out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("DSM sort output wrong")
	}
	if res.initialRuns != 30 {
		t.Fatalf("initial runs = %d, want 30", res.initialRuns)
	}
	// 30 runs merged 4 at a time: passes = ceil(log_4 30) = 3.
	if res.stats.MergePasses != 3 {
		t.Fatalf("merge passes = %d, want 3", res.stats.MergePasses)
	}
	// Run formation: N/DB reads and writes (N=3000, DB=16 -> 188 each,
	// with rounding per run: reads = ceil(750/4) stripes of the input).
	if res.formReads != int64((file.NumBlocks()+3)/4) {
		t.Fatalf("run formation reads = %d", res.formReads)
	}
}

func TestSortEmptyAndTiny(t *testing.T) {
	sys := newSys(t, 2, 2)
	file, err := runform.LoadInput[record.Record](sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sortFile(sys, file, 10, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.out.Records != 0 {
		t.Fatalf("empty sort has %d records", res.out.Records)
	}
	// Input smaller than one load: zero merge passes.
	g := record.NewGenerator(4)
	all := g.Random(7)
	file, err = runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	res, err = sortFile(sys, file, 10, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.stats.MergePasses != 0 {
		t.Fatalf("tiny input took %d merge passes", res.stats.MergePasses)
	}
	got, err := runio.ReadAll[record.Record](sys, res.out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("tiny sort wrong")
	}
}

func TestPropertySortCorrect(t *testing.T) {
	f := func(seed int64, dRaw, bRaw uint8) bool {
		d := int(dRaw)%4 + 1
		b := int(bRaw)%4 + 1
		g := record.NewGenerator(seed)
		n := int(uint16(seed)) % 1200
		all := g.Random(n)
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
		if err != nil {
			return false
		}
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			return false
		}
		res, err := sortFile(sys, file, 50, 3, false)
		if err != nil {
			return false
		}
		got, err := runio.ReadAll[record.Record](sys, res.out)
		if err != nil {
			return false
		}
		return record.IsSortedRecords(got) && record.Checksum(got) == record.Checksum(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// atDiskZero is DSM's placement: every run starts on disk 0.
var atDiskZero = runio.FixedPlacement{Disk: 0}

// sorted is the outcome of sortFile.
type sorted struct {
	out         *runio.Run
	initialRuns int
	formReads   int64 // read operations of the run-formation pass
	stats       srm.SortStats
}

// sortFile runs a whole DSM sort of the input file the way srmsort drives
// one: half-memory loads written from disk 0, then the pass loop with
// DSM's merge over the formed runs.
func sortFile(sys *pdisk.System, file *runform.InputFile, load, r int, async bool) (sorted, error) {
	before := sys.Stats().ReadOps
	formed, err := runform.MemoryLoad[record.Record](sys, file, load, atDiskZero, 0)
	if err != nil {
		return sorted{}, err
	}
	res := sorted{initialRuns: len(formed.Runs), formReads: sys.Stats().ReadOps - before}
	if len(formed.Runs) == 0 {
		res.out, err = runio.NewWriter[record.Record](sys, 0, 0).Finish()
		return res, err
	}
	res.out, res.stats, _, err = srm.SortRunsWith(sys, formed.Runs, r, atDiskZero, formed.NextSeq,
		srm.SortOpts{}, Merge[record.Record](sys, async))
	return res, err
}
