package srm

import (
	"errors"
	"reflect"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// Kill a file-backed sort mid-merge and reopen the store: every block
// written before the failure must survive intact. The formed initial runs
// act as the durable state a real external sorter would restart from; the
// simulated crash abandons the first store without Close (so no final
// fsync), and a second FileStore recovers occupancy from the same
// directory.
func TestFileBackedCrashMidSortReopen(t *testing.T) {
	const d, b = 4, 4
	dir := t.TempDir()
	placement := runio.StaggeredPlacement{D: d}

	g := record.NewGenerator(77)
	all := g.Random(1200)
	runs := g.SplitIntoSortedRuns(all, 8)

	fs, err := pdisk.NewFileStore(dir, b, d)
	if err != nil {
		t.Fatal(err)
	}
	fault := pdisk.NewFaultStore(fs, pdisk.FaultConfig{})
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b, Store: fault})
	if err != nil {
		t.Fatal(err)
	}
	descs := writeRuns(t, sys, runs, placement)
	written := sys.Stats().BlocksWritten

	// Fail the merge's very first output write: the sort dies before it
	// frees any source run, so every formed run must still be on disk.
	fault.Configure(pdisk.FaultConfig{FailWriteAt: written + 1})
	if _, _, _, err := SortRunsOpts[record.Record](sys, descs, 4, placement, len(runs), SortOpts{}); !errors.Is(err, pdisk.ErrInjected) {
		t.Fatalf("mid-sort write fault: %v, want ErrInjected", err)
	}
	// Crash: abandon sys and both stores without Close.

	reopened, err := pdisk.NewFileStore(dir, b, d)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	sys2, err := pdisk.NewSystem(pdisk.Config{D: d, B: b, Store: reopened})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()

	var totalBlocks int
	for _, r := range descs {
		totalBlocks += r.NumBlocks()
	}
	if got := reopened.Usage().Blocks; got < int64(totalBlocks) {
		t.Fatalf("reopened store holds %d blocks, want at least the %d run blocks", got, totalBlocks)
	}
	for i, desc := range descs {
		got, err := runio.ReadAll[record.Record](sys2, desc)
		if err != nil {
			t.Fatalf("run %d unreadable after crash: %v", i, err)
		}
		if !reflect.DeepEqual(got, runs[i]) {
			t.Fatalf("run %d corrupted across the crash", i)
		}
	}

	// The surviving runs are a complete restart point: re-sorting them on
	// the reopened store must produce the full input, sorted.
	final, _, _, err := SortRunsOpts[record.Record](sys2, descs, 4, placement, len(runs), SortOpts{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runio.ReadAll[record.Record](sys2, final)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(out) || record.Checksum(out) != record.Checksum(all) {
		t.Fatal("restarted sort did not recover the full input")
	}
}
