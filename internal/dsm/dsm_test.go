package dsm

import (
	"testing"
	"testing/quick"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
)

func newSys(t testing.TB, d, b int) *pdisk.System {
	t.Helper()
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMergeOrderFormula(t *testing.T) {
	// M/B = 2kD + 4D + kD^2/B with k=10, D=4, B=1000:
	// M/B = 80 + 16 + 0 (kD^2/B = 160/1000 rounds into the blocks) — use
	// explicit numbers instead: memBlocks=96 => (96-8)/8 = 11 = k+1.
	if got := MergeOrder(96, 4); got != 11 {
		t.Fatalf("MergeOrder(96,4) = %d, want 11", got)
	}
	if got := MergeOrder(20, 5); got != 1 {
		t.Fatalf("MergeOrder(20,5) = %d, want 1", got)
	}
}

func TestWriterLogicalBlocks(t *testing.T) {
	sys := newSys(t, 4, 2)
	w := NewWriter[record.Record](sys, 0)
	g := record.NewGenerator(1)
	recs := g.Sorted(17) // DB = 8; 2 full stripes + partial of 1
	for _, r := range recs {
		w.Room()[0] = r
		if err := w.Commit(1); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.NumStripes() != 3 {
		t.Fatalf("stripes = %d, want 3", run.NumStripes())
	}
	if ops := sys.Stats().WriteOps; ops != 3 {
		t.Fatalf("write ops = %d, want 3", ops)
	}
	got, err := ReadAll[record.Record](sys, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 17 {
		t.Fatalf("read back %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// commitAll writes recs to w through Room and Commit, filling each room.
func commitAll[R record.KernelRecord](t testing.TB, w *Writer[R], recs []R) {
	for len(recs) > 0 {
		n := copy(w.Room(), recs)
		if err := w.Commit(n); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
}

// Commit checks every record it hands over, not just the first: an
// out-of-order record panics, naming the run and both keys, whether it
// opens a commit or sits in its middle, at both record widths.
func TestCommitPanicsOutOfOrder(t *testing.T) {
	t.Run("Rec16", func(t *testing.T) {
		commitOutOfOrder(t, func(k record.Key) record.Rec16 { return record.Rec16{Key: k} })
	})
	t.Run("Record", func(t *testing.T) {
		commitOutOfOrder(t, func(k record.Key) record.Record { return record.Record{Key: k} })
	})
}

func commitOutOfOrder[R record.KernelRecord](t *testing.T, mk func(record.Key) R) {
	commit := func(w *Writer[R], keys ...record.Key) error {
		room := w.Room()
		for i, k := range keys {
			room[i] = mk(k)
		}
		return w.Commit(len(keys))
	}
	for _, tc := range []struct {
		name string
		keys []record.Key
		want string
	}{
		{"first", []record.Key{4, 6}, "dsm: run 7 records out of order (4 after 5)"},
		{"middle", []record.Key{6, 8, 3, 9}, "dsm: run 7 records out of order (3 after 8)"},
	} {
		w := NewWriter[R](newSys(t, 2, 4), 7)
		if err := commit(w, 5); err != nil {
			t.Fatal(err)
		}
		got := func() (msg any) {
			defer func() { msg = recover() }()
			_ = commit(w, tc.keys...)
			return nil
		}()
		if got != tc.want {
			t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
		}
	}
}

func TestMergeCorrectAndCounted(t *testing.T) {
	sys := newSys(t, 3, 4)
	g := record.NewGenerator(2)
	all := g.Random(500)
	pieces := g.SplitIntoSortedRuns(all, 5)
	var runs []*Run
	totalStripes := 0
	for i, p := range pieces {
		w := NewWriter[record.Record](sys, i)
		commitAll(t, w, p)
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		totalStripes += run.NumStripes()
	}
	out, ms, _, err := MergeAll[record.Record](sys, runs, len(runs), 99, MergeAllOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Merges != 1 {
		t.Fatalf("%d merges, want one", ms.Merges)
	}
	if ms.MergeReadOps != int64(totalStripes) {
		t.Fatalf("merge read ops = %d, want exactly the %d input logical blocks",
			ms.MergeReadOps, totalStripes)
	}
	if ms.MergeWriteOps != int64(out.NumStripes()) {
		t.Fatalf("merge write ops = %d, want %d output logical blocks",
			ms.MergeWriteOps, out.NumStripes())
	}
	got, err := ReadAll[record.Record](sys, out)
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
	var runs []*Run
	for i, p := range g.SplitIntoSortedRuns(all, 4) {
		w := NewWriter[record.Record](sys, i)
		if err := w.AppendBlock(p); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	out, _, _, err := MergeAll[record.Record](sys, runs, len(runs), 99, MergeAllOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll[record.Record](sys, out)
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
	got, err := ReadAll[record.Record](sys, res.out)
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
	got, err := ReadAll[record.Record](sys, res.out)
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
		got, err := ReadAll[record.Record](sys, res.out)
		if err != nil {
			return false
		}
		return record.IsSortedRecords(got) && record.Checksum(got) == record.Checksum(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// sorted is the outcome of sortFile.
type sorted struct {
	out         *Run
	initialRuns int
	formReads   int64 // read operations of the run-formation pass
	stats       SortStats
}

// sortFile runs a whole DSM sort of the input file the way srmsort drives
// one: FormRunsCores, then MergeAll over the formed runs.
func sortFile(sys *pdisk.System, file *runform.InputFile, load, r int, async bool) (sorted, error) {
	before := sys.Stats().ReadOps
	runs, err := FormRunsCores[record.Record](sys, file, load, async, 1)
	if err != nil {
		return sorted{}, err
	}
	res := sorted{initialRuns: len(runs), formReads: sys.Stats().ReadOps - before}
	if len(runs) == 0 {
		res.out, err = NewWriter[record.Record](sys, 0).Finish()
		return res, err
	}
	res.out, res.stats, _, err = MergeAll[record.Record](sys, runs, r, len(runs), MergeAllOpts{Async: async})
	return res, err
}
