package srm

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// srmWaitGoroutines retries until the goroutine count returns to at most
// base, tolerating lazily-exiting runtime goroutines.
func srmWaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Injected device faults mid-pipeline must surface from an async Merge as clean
// errors — no panic, no deadlock, no goroutine leak — wherever in the
// schedule they strike.
func TestMergeAsyncInjectedFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(55)
	all := g.Random(1500)
	runs := g.SplitIntoSortedRuns(all, 10)

	// The FaultStore counts store operations from construction, so fault
	// points inside the merge must be offset by the traffic writeRuns
	// generates. Measure both with a clean run.
	clean := func() (setupReads, setupWrites, mergeReads, mergeWrites int64) {
		fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
		sys, err := pdisk.NewSystem(pdisk.Config{D: 4, B: 4, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		setup := sys.Stats()
		if _, _, err := Merge[record.Record](sys, descs, 10, 1000, 0, MergeOpts{Async: true}); err != nil {
			t.Fatal(err)
		}
		total := sys.Stats()
		return setup.BlocksRead, setup.BlocksWritten,
			total.BlocksRead - setup.BlocksRead, total.BlocksWritten - setup.BlocksWritten
	}
	setupReads, setupWrites, mergeReads, mergeWrites := clean()

	try := func(failReadAt, failWriteAt int64) error {
		fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
		sys, err := pdisk.NewSystem(pdisk.Config{D: 4, B: 4, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		fs.Configure(pdisk.FaultConfig{FailReadAt: failReadAt, FailWriteAt: failWriteAt})
		_, _, err = Merge[record.Record](sys, descs, 10, 1000, 0, MergeOpts{Async: true})
		return err
	}

	for _, at := range []int64{1, 2, mergeReads / 3, mergeReads / 2, mergeReads} {
		if at < 1 {
			continue
		}
		if err := try(setupReads+at, 0); !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("async read fault at %d: %v, want ErrInjected", at, err)
		}
	}
	for _, at := range []int64{1, mergeWrites / 2, mergeWrites} {
		if at < 1 {
			continue
		}
		if err := try(0, setupWrites+at); !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("async write fault at %d: %v, want ErrInjected", at, err)
		}
	}
	srmWaitGoroutines(t, base)
}

// A free-path fault strikes inside an async merge, with reads and
// write-behind in flight: each merge frees its inputs' blocks as it drains
// them, runio.FreeBatch at a time, and the first batch fills 64 blocks
// into the first merge. The sort must surface it cleanly too.
func TestSortRunsAsyncFreeFault(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(66)
	all := g.Random(800)
	runs := g.SplitIntoSortedRuns(all, 8)

	fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
	sys, err := pdisk.NewSystem(pdisk.Config{D: 2, B: 4, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	fs.Configure(pdisk.FaultConfig{FailFreeAt: 1})
	_, _, _, err = SortRunsOpts[record.Record](sys, descs, 4, runio.StaggeredPlacement{D: 2}, len(runs), SortOpts{Async: true})
	if !errors.Is(err, pdisk.ErrInjected) {
		t.Fatalf("free fault: %v, want ErrInjected", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	srmWaitGoroutines(t, base)
}

// Repeated async merges must leave no goroutines behind once their systems
// are closed.
func TestMergeAsyncNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(77)
	all := g.Random(600)
	runs := g.SplitIntoSortedRuns(all, 6)
	for i := 0; i < 3; i++ {
		sys := newSys(t, 4, 4)
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		out, _, err := Merge[record.Record](sys, descs, 6, 1000, 0, MergeOpts{Async: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runio.ReadAll[record.Record](sys, out)
		if err != nil {
			t.Fatal(err)
		}
		if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
			t.Fatal("async merge output wrong")
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srmWaitGoroutines(t, base)
}
