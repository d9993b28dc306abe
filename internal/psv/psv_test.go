package psv

import (
	"reflect"
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

// sortStats is what a PSV mergesort did: its formation's run count and
// its merge passes' statistics.
type sortStats struct {
	InitialRuns int
	srm.SortStats
}

// sortFile is a PSV mergesort of the striped input file as the root
// package runs it: runs of load records starting on disk s mod D, merged
// D at a time by Merge in srm.SortRunsWith's pass loop, on workers
// goroutines. An empty input sorts to an empty run.
func sortFile[R record.KernelRecord](sys *pdisk.System, file *runform.InputFile, load, bufBlocks, workers int) (*runio.Run, sortStats, error) {
	pl := runio.StaggeredPlacement{D: sys.D()}
	formed, err := runform.MemoryLoad[R](sys, file, load, pl, 0)
	if err != nil {
		return nil, sortStats{}, err
	}
	stats := sortStats{InitialRuns: len(formed.Runs)}
	if len(formed.Runs) == 0 {
		empty, err := runio.NewWriter[R](sys, 0, 0).Finish()
		return empty, stats, err
	}
	final, ss, _, err := srm.SortRunsWith(sys, formed.Runs, sys.D(), pl, formed.NextSeq,
		srm.SortOpts{Workers: workers}, Merge[R](sys, bufBlocks))
	stats.SortStats = ss
	return final, stats, err
}

func TestDiskRunRoundTrip(t *testing.T) {
	sys := newSys(t, 3, 4)
	g := record.NewGenerator(1)
	recs := g.Sorted(30)
	run, err := WriteDiskRun(sys, 0, 2, recs)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumBlocks() != 8 || run.Disk != 2 {
		t.Fatalf("run: %d blocks on disk %d", run.NumBlocks(), run.Disk)
	}
	// Single-disk writes are serial: one op per block.
	if ops := sys.Stats().WriteOps; ops != 8 {
		t.Fatalf("write ops = %d, want 8 (serial single-disk writes)", ops)
	}
	got, err := ReadAllDiskRun[record.Record](sys, run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestMergeCorrect(t *testing.T) {
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(2)
	all := g.Random(800)
	pieces := g.SplitIntoSortedRuns(all, 4)
	var runs []*DiskRun
	for i, p := range pieces {
		r, err := WriteDiskRun(sys, i, i, p)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	out, stats, err := mergeDiskRuns[record.Record](sys, runs, 3, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocksReadByMerge := sys.Stats().BlocksRead
	got, err := runio.ReadAll[record.Record](sys, out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("PSV merge output wrong")
	}
	// Every input block is read exactly once; ops are at least the
	// largest per-disk block count and at most the total block count.
	maxBlocks, total := 0, 0
	for _, r := range runs {
		total += r.NumBlocks()
		if r.NumBlocks() > maxBlocks {
			maxBlocks = r.NumBlocks()
		}
	}
	if stats.ReadOps < int64(maxBlocks) || stats.ReadOps > int64(total) {
		t.Fatalf("read ops %d outside [%d, %d]", stats.ReadOps, maxBlocks, total)
	}
	if blocksReadByMerge != int64(total) {
		t.Fatalf("blocks read %d, want %d (each exactly once)", blocksReadByMerge, total)
	}
}

func TestMergeValidation(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(3)
	r0, err := WriteDiskRun(sys, 0, 0, g.Sorted(10))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := WriteDiskRun(sys, 1, 0, g.Sorted(10)) // same disk!
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mergeDiskRuns[record.Record](sys, []*DiskRun{r0, r1}, 2, 9, 0); err == nil {
		t.Fatal("two runs on one disk accepted")
	}
	if _, _, err := mergeDiskRuns[record.Record](sys, nil, 2, 9, 0); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, _, err := mergeDiskRuns[record.Record](sys, []*DiskRun{r0}, 0, 9, 0); err == nil {
		t.Fatal("zero buffer accepted")
	}
}

func TestTransposeCorrectAndParallel(t *testing.T) {
	d, b := 4, 4
	sys := newSys(t, d, b)
	g := record.NewGenerator(4)
	var striped []*runio.Run
	var want [][]record.Record
	for j := 0; j < d; j++ {
		recs := g.Sorted(160) // 40 blocks each
		run, err := runio.WriteRun(sys, j, j%d, recs)
		if err != nil {
			t.Fatal(err)
		}
		striped = append(striped, run)
		want = append(want, recs)
	}
	sys.ResetStats()
	diskRuns, stats, err := Transpose[record.Record](sys, striped, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, dr := range diskRuns {
		if dr.Disk != j {
			t.Fatalf("run %d landed on disk %d", j, dr.Disk)
		}
		got, err := ReadAllDiskRun[record.Record](sys, dr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[j]) {
			t.Fatalf("run %d has %d records", j, len(got))
		}
		for i := range got {
			if got[i] != want[j][i] {
				t.Fatalf("run %d record %d mismatch", j, i)
			}
		}
	}
	// One full read pass + one full write pass over 160 blocks: 40+40 ops.
	totalBlocks := int64(4 * 40)
	if stats.ReadOps != totalBlocks/int64(d) {
		t.Fatalf("transpose read ops %d, want %d", stats.ReadOps, totalBlocks/int64(d))
	}
	if stats.WriteOps < totalBlocks/int64(d) || stats.WriteOps > totalBlocks/int64(d)+int64(d) {
		t.Fatalf("transpose write ops %d, want ~%d", stats.WriteOps, totalBlocks/int64(d))
	}
	// The staging memory is Θ(D²) blocks.
	if stats.MaxStaged < d*d-d || stats.MaxStaged > 2*d*d {
		t.Fatalf("staging peak %d outside Θ(D²)=[%d, %d]", stats.MaxStaged, d*d-d, 2*d*d)
	}
}

func TestTransposeUnevenRuns(t *testing.T) {
	sys := newSys(t, 3, 2)
	g := record.NewGenerator(5)
	var striped []*runio.Run
	for j, n := range []int{5, 33, 14} {
		run, err := runio.WriteRun(sys, j, j, g.Sorted(n))
		if err != nil {
			t.Fatal(err)
		}
		striped = append(striped, run)
	}
	diskRuns, _, err := Transpose[record.Record](sys, striped, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, dr := range diskRuns {
		if dr.Disk != j {
			t.Fatalf("run %d landed on disk %d", j, dr.Disk)
		}
		got, err := ReadAllDiskRun[record.Record](sys, dr)
		if err != nil {
			t.Fatal(err)
		}
		if !record.IsSortedRecords(got) {
			t.Fatalf("run %d unsorted after transpose", j)
		}
	}
}

func TestSortEndToEnd(t *testing.T) {
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(6)
	all := g.Random(4000)
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	out, stats, err := sortFile[record.Record](sys, file, 125, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[record.Record](sys, out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("PSV sort output wrong")
	}
	if stats.InitialRuns != 32 {
		t.Fatalf("initial runs = %d, want 32", stats.InitialRuns)
	}
	// 32 runs merged D=4 at a time: 3 levels; transpositions add I/O.
	if stats.MergePasses != 3 {
		t.Fatalf("levels = %d, want 3", stats.MergePasses)
	}
	if stats.TransposeOps == 0 {
		t.Fatal("no transposition cost recorded")
	}
}

func TestSortEmpty(t *testing.T) {
	sys := newSys(t, 2, 2)
	file, err := runform.LoadInput[record.Record](sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := sortFile[record.Record](sys, file, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Records != 0 {
		t.Fatalf("empty sort produced %d records", out.Records)
	}
}

// The paper's comparison: a PSV mergesort pays an extra transposition pass
// per merge level, so its total ops exceed an SRM-style striped mergesort's
// for the same data (which needs no realignment).
func TestTranspositionOverheadIsVisible(t *testing.T) {
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(7)
	all := g.Random(4000)
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	_, stats, err := sortFile[record.Record](sys, file, 125, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	transOps := stats.TransposeOps
	mergeOps := stats.ReadOps + stats.WriteOps - transOps
	// Transposition is a full read+write pass per level, comparable in
	// magnitude to the merges themselves.
	if transOps < mergeOps/3 {
		t.Fatalf("transposition ops %d suspiciously small vs merge ops %d", transOps, mergeOps)
	}
}

func TestPropertySortCorrect(t *testing.T) {
	f := func(seed int64, dRaw, bRaw uint8) bool {
		d := int(dRaw)%4 + 2
		b := int(bRaw)%4 + 1
		g := record.NewGenerator(seed)
		n := int(uint16(seed)) % 1000
		all := g.Random(n)
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
		if err != nil {
			return false
		}
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			return false
		}
		out, _, err := sortFile[record.Record](sys, file, 60, 3, 0)
		if err != nil {
			return false
		}
		got, err := runio.ReadAll[record.Record](sys, out)
		if err != nil {
			return false
		}
		return record.IsSortedRecords(got) && record.Checksum(got) == record.Checksum(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// PSV's merges run concurrently under the pass loop's workers; each counts
// its own operations, so the output, the merge statistics and the
// System's totals equal a serial sort's.
func TestSortWorkersEquivalence(t *testing.T) {
	const d, b = 4, 4
	g := record.NewGenerator(8)
	all := g.Random(6000)
	run := func(workers int) ([]record.Record, sortStats, pdisk.Stats) {
		sys := newSys(t, d, b)
		defer sys.Close()
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		out, stats, err := sortFile[record.Record](sys, file, 60, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		sysStats := sys.Stats()
		got, err := runio.ReadAll[record.Record](sys, out)
		if err != nil {
			t.Fatal(err)
		}
		return got, stats, sysStats
	}
	wantOut, wantStats, wantSys := run(0)
	if !record.IsSortedRecords(wantOut) || record.Checksum(wantOut) != record.Checksum(all) {
		t.Fatal("serial PSV sort output wrong")
	}
	if wantStats.Merges < 2*d {
		t.Fatalf("only %d merges: too few to overlap", wantStats.Merges)
	}
	for _, workers := range []int{2, 4, -1} {
		got, stats, sysStats := run(workers)
		if !reflect.DeepEqual(got, wantOut) {
			t.Fatalf("workers=%d: output differs from the serial sort", workers)
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v, serial %+v", workers, stats, wantStats)
		}
		if sysStats.ReadOps != wantSys.ReadOps || sysStats.WriteOps != wantSys.WriteOps ||
			sysStats.BlocksRead != wantSys.BlocksRead || sysStats.BlocksWritten != wantSys.BlocksWritten {
			t.Fatalf("workers=%d: System totals %+v, serial %+v", workers, sysStats, wantSys)
		}
	}
}
