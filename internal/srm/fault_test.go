package srm

import (
	"errors"
	"testing"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
)

// Every injected device failure must surface as an error from the sort —
// never a panic, never silently wrong output. Sweep the failure point
// across the whole schedule.
func TestInjectedFaultsSurfaceAsErrors(t *testing.T) {
	all := record.NewGenerator(41).Random(600)

	countOps := func() (reads, writes int64) {
		sys, err := pdisk.NewSystem(pdisk.Config{D: 3, B: 4})
		if err != nil {
			t.Fatal(err)
		}
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 50, runio.StaggeredPlacement{D: 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := SortRunsOpts[record.Record](sys, formed.Runs, 4, runio.StaggeredPlacement{D: 3}, formed.NextSeq, SortOpts{}); err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		return st.BlocksRead, st.BlocksWritten
	}
	totalReads, totalWrites := countOps()

	tryWithFault := func(failReadAt, failWriteAt int64) error {
		fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{
			FailReadAt:  failReadAt,
			FailWriteAt: failWriteAt,
		})
		sys, err := pdisk.NewSystem(pdisk.Config{D: 3, B: 4, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			return err
		}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 50, runio.StaggeredPlacement{D: 3}, 0)
		if err != nil {
			return err
		}
		_, _, _, err = SortRunsOpts[record.Record](sys, formed.Runs, 4, runio.StaggeredPlacement{D: 3}, formed.NextSeq, SortOpts{})
		return err
	}

	// Sample failure points across the schedule (block-level counters,
	// including the input-loading writes).
	for _, at := range []int64{1, 2, totalReads / 3, totalReads / 2, totalReads} {
		if at < 1 {
			continue
		}
		err := tryWithFault(at, 0)
		if err == nil {
			t.Fatalf("read fault at %d vanished", at)
		}
		if !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("read fault at %d wrapped away: %v", at, err)
		}
	}
	for _, at := range []int64{1, totalWrites / 2, totalWrites} {
		if at < 1 {
			continue
		}
		err := tryWithFault(0, at)
		if err == nil {
			t.Fatalf("write fault at %d vanished", at)
		}
		if !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("write fault at %d wrapped away: %v", at, err)
		}
	}
}

// TestSortUnderStragglers drives a whole SRM sort through the full
// resilience stack — Retry over Deadline over a FaultStore drawing
// seeded Pareto latency on every operation — and demands a correct,
// fully sorted output plus a health ledger that actually saw the
// traffic. Run under -race this doubles as the concurrency check on
// the hedging path: hedged duplicates and abandoned ops race the
// winners on every straggling read.
func TestSortUnderStragglers(t *testing.T) {
	all := record.NewGenerator(43).Random(800)
	tracker := pdisk.NewHealthTracker()
	var store pdisk.Store = pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{
		Seed:         43,
		ReadFailProb: 0.02,
		ParetoScale:  20 * time.Microsecond,
		ParetoAlpha:  1.1,
		ParetoCap:    2 * time.Millisecond,
	})
	store = pdisk.NewDeadlineStore(store, pdisk.DeadlinePolicy{
		OpDeadline: 20 * time.Millisecond,
		HedgeAfter: time.Millisecond,
		Tracker:    tracker,
	})
	policy := pdisk.DefaultRetryPolicy()
	policy.Seed = 43
	policy.Sleep = func(time.Duration) {}
	store = pdisk.NewRetryStore(store, policy)

	sys, err := pdisk.NewSystem(pdisk.Config{D: 4, B: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	formed, err := runform.MemoryLoad[record.Record](sys, file, 50, runio.StaggeredPlacement{D: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	final, _, _, err := SortRunsOpts[record.Record](sys, formed.Runs, 4, runio.StaggeredPlacement{D: 4}, formed.NextSeq, SortOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[record.Record](sys, final)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("sort under straggler latency produced wrong output")
	}
	h := tracker.Snapshot()
	var ops int64
	for _, d := range h.PerDisk {
		ops += d.Ops
	}
	if ops == 0 {
		t.Fatal("health tracker observed no operations")
	}
	t.Logf("ops=%d hedged=%d wins=%d timeouts=%d", ops, h.HedgedReads, h.HedgeWins, h.Timeouts)
}

// A fault-free FaultStore must be transparent.
func TestFaultStoreTransparentWhenIdle(t *testing.T) {
	all := record.NewGenerator(42).Random(300)
	fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
	sys, err := pdisk.NewSystem(pdisk.Config{D: 2, B: 4, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	file, err := runform.LoadInput(sys, all)
	if err != nil {
		t.Fatal(err)
	}
	formed, err := runform.MemoryLoad[record.Record](sys, file, 40, runio.StaggeredPlacement{D: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	final, _, _, err := SortRunsOpts[record.Record](sys, formed.Runs, 3, runio.StaggeredPlacement{D: 2}, formed.NextSeq, SortOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[record.Record](sys, final)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
		t.Fatal("sort through idle FaultStore wrong")
	}
}
