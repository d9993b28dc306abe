package dsm

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
)

// An async DSM sort must be indistinguishable from a sync one: identical
// records out, identical statistics, identical system-level operation
// counts.
func TestSortAsyncEquivalence(t *testing.T) {
	for _, d := range []int{1, 2, 4, 8} {
		g := record.NewGenerator(int64(d) * 31)
		all := g.Random(2000)

		do := func(async bool) ([]record.Record, sorted, int64) {
			sys := newSys(t, d, 4)
			defer sys.Close()
			file, err := runform.LoadInput(sys, all)
			if err != nil {
				t.Fatal(err)
			}
			sys.ResetStats()
			res, err := sortFile(sys, file, 120, 3, async)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := ReadAll[record.Record](sys, res.out)
			if err != nil {
				t.Fatal(err)
			}
			res.out = nil // compare the counts, not the descriptor
			return recs, res, sys.Stats().Ops()
		}

		sRecs, sStats, sOps := do(false)
		aRecs, aStats, aOps := do(true)
		if len(sRecs) != len(aRecs) {
			t.Fatalf("D=%d: sync %d records, async %d", d, len(sRecs), len(aRecs))
		}
		for i := range sRecs {
			if sRecs[i] != aRecs[i] {
				t.Fatalf("D=%d record %d: sync %+v, async %+v", d, i, sRecs[i], aRecs[i])
			}
		}
		if sStats != aStats {
			t.Fatalf("D=%d stats diverge:\nsync  %+v\nasync %+v", d, sStats, aStats)
		}
		if sOps != aOps {
			t.Fatalf("D=%d ops diverge: sync %d, async %d", d, sOps, aOps)
		}
	}
}

// StreamBlocks with read-ahead must deliver the same records as without
// it, at the same read cost.
func TestStreamAsyncEquivalence(t *testing.T) {
	sys := newSys(t, 3, 4)
	defer sys.Close()
	g := record.NewGenerator(17)
	all := g.Sorted(500)
	w := NewWriter[record.Record](sys, 0)
	commitAll(t, w, all)
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	before := sys.Stats().ReadOps
	var syncRecs []record.Record
	if err := StreamBlocks(sys, run, false, func(blk []record.Record) error { syncRecs = append(syncRecs, blk...); return nil }); err != nil {
		t.Fatal(err)
	}
	syncReads := sys.Stats().ReadOps - before

	before = sys.Stats().ReadOps
	var asyncRecs []record.Record
	if err := StreamBlocks(sys, run, true, func(blk []record.Record) error { asyncRecs = append(asyncRecs, blk...); return nil }); err != nil {
		t.Fatal(err)
	}
	asyncReads := sys.Stats().ReadOps - before

	if len(syncRecs) != len(asyncRecs) {
		t.Fatalf("sync %d records, async %d", len(syncRecs), len(asyncRecs))
	}
	for i := range syncRecs {
		if syncRecs[i] != asyncRecs[i] {
			t.Fatalf("record %d: sync %+v, async %+v", i, syncRecs[i], asyncRecs[i])
		}
	}
	if syncReads != asyncReads {
		t.Fatalf("read ops: sync %d, async %d", syncReads, asyncReads)
	}

	// A callback error mid-stream must abandon cleanly (the in-flight
	// readahead is collected, not leaked).
	sentinel := errors.New("stop")
	n := 0
	err = StreamBlocks(sys, run, true, func([]record.Record) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("mid-stream error: %v, want sentinel", err)
	}
}

// Injected faults during an async DSM sort must surface as clean errors
// with no goroutine leak.
func TestSortAsyncInjectedFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(43)
	all := g.Random(1000)

	// The store counts operations from construction, so fault points must
	// be offset by the traffic LoadInput generates before the sort starts.
	for _, fault := range []struct {
		name string
		set  func(*pdisk.FaultStore, pdisk.Stats)
	}{
		{"read", func(fs *pdisk.FaultStore, s pdisk.Stats) {
			fs.Configure(pdisk.FaultConfig{FailReadAt: s.BlocksRead + 120})
		}},
		{"write", func(fs *pdisk.FaultStore, s pdisk.Stats) {
			fs.Configure(pdisk.FaultConfig{FailWriteAt: s.BlocksWritten + 120})
		}},
		{"free", func(fs *pdisk.FaultStore, s pdisk.Stats) {
			fs.Configure(pdisk.FaultConfig{FailFreeAt: 1})
		}},
	} {
		fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
		sys, err := pdisk.NewSystem(pdisk.Config{D: 3, B: 4, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		fault.set(fs, sys.Stats())
		_, err = sortFile(sys, file, 80, 3, true)
		if !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("%s fault: %v, want ErrInjected", fault.name, err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
