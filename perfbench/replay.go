package main

import (
	"fmt"
	"math"
	"math/rand"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

// Span names of the layer calls a library replay makes, keyed by the
// per-layer metric that reports the span's self time.
const (
	spanIngest = "runform.NewLoader..Finish"
	spanForm   = "runform.MemoryLoadCores"
	spanMerge  = "srm.SortRunsOpts"
	spanEgest  = "runio.Stream"
)

// replayOut is one traced replay of a library sort.
type replayOut struct {
	stats srmsort.Stats
	// mergeBlocksRead is the blocks the merge passes read, re-reads
	// included.
	mergeBlocksRead int64
	root            int            // the op's span
	phase           map[string]int // span name → span index
	store           storeTally     // the store beneath the System
}

// replaySRM replays srmsort's runSort orchestration for the library
// workloads' configuration — SRM with random placement, half-memory-load
// run formation, no checkpoint, retry or deadline — through the internal
// packages, one span per layer call. The store open returns is wrapped in
// a timedStore, which times every block operation beneath the System.
// feed ingests the input and sink consumes the sorted output, as
// srmsort's own feed and sink do.
func replaySRM[R record.KernelRecord](tr *tracer, cfg srmsort.Config, open func() (pdisk.Store, func() error, error), feed func(app func(R) error) error, sink func(R) error) (replayOut, error) {
	out := replayOut{phase: map[string]int{}}
	r, m, err := cfg.MergeOrder()
	if err != nil {
		return out, err
	}
	out.stats = srmsort.Stats{Algorithm: cfg.Algorithm, D: cfg.D, B: cfg.B, M: m, R: r}
	out.root = tr.begin("op", -1)
	defer tr.end(out.root)
	step := func(name string, fn func() error) error {
		id := tr.begin(name, out.root)
		err := fn()
		tr.end(id)
		out.phase[name] = id
		return err
	}

	var sys *pdisk.System
	var ts *timedStore
	var cleanup func() error
	if err := step("pdisk.NewSystem", func() error {
		inner, clean, err := open()
		if err != nil {
			return err
		}
		ts = newTimedStore(inner, tr.epoch, true, true)
		if sys, err = pdisk.NewSystem(pdisk.Config{D: cfg.D, B: cfg.B, Store: ts}); err != nil {
			inner.Close()
			clean()
			return err
		}
		cleanup = clean
		return nil
	}); err != nil {
		return out, err
	}
	closed := false
	closeAll := func() error {
		closed = true
		err := sys.Close()
		if cerr := cleanup(); err == nil {
			err = cerr
		}
		return err
	}
	defer func() {
		if !closed {
			closeAll()
		}
	}()

	var file *runform.InputFile
	if err := step(spanIngest, func() error {
		loader := runform.NewLoader[R](sys)
		if err := feed(loader.Append); err != nil {
			return err
		}
		var err error
		file, err = loader.Finish()
		return err
	}); err != nil {
		return out, err
	}
	step("pdisk.ResetStats", func() error { sys.ResetStats(); return nil })

	placement := &runio.RandomPlacement{D: cfg.D, Rng: rand.New(rand.NewSource(cfg.Seed))}
	var formed runform.Result
	if err := step(spanForm, func() error {
		var err error
		formed, err = runform.MemoryLoadCores[R](sys, file, (m+1)/2, placement, 0, cfg.Cores)
		return err
	}); err != nil {
		return out, err
	}
	if len(formed.Runs) == 0 {
		return out, fmt.Errorf("replay: run formation produced no runs")
	}
	afterForm := sys.Stats()
	out.stats.RunFormationReads = afterForm.ReadOps
	out.stats.RunFormationWrites = afterForm.WriteOps
	out.stats.InitialRuns = len(formed.Runs)

	var final *runio.Run
	if err := step(spanMerge, func() error {
		var ss srm.SortStats
		var err error
		final, ss, _, err = srm.SortRunsOpts[R](sys, formed.Runs, r, placement, formed.NextSeq,
			srm.SortOpts{Async: cfg.Async, Workers: cfg.Workers, Cores: cfg.Cores})
		out.stats.MergePasses = ss.MergePasses
		out.stats.MergeReads = ss.ReadOps
		out.stats.MergeWrites = ss.WriteOps
		out.stats.Flushes = ss.Flushes
		out.stats.BlocksFlushed = ss.BlocksFlushed
		out.stats.BlocksReread = ss.BlocksReread
		return err
	}); err != nil {
		return out, err
	}
	final1 := sys.Stats()
	out.mergeBlocksRead = final1.BlocksRead - afterForm.BlocksRead
	out.stats.ReadParallelism = final1.ReadParallelism()
	out.stats.WriteParallelism = final1.WriteParallelism()
	out.stats.ReadBalance = final1.ReadBalance()
	out.stats.WriteBalance = final1.WriteBalance()
	out.stats.SimTime = final1.SimTime
	out.stats.Health = final1.Health

	if err := step(spanEgest, func() error {
		if cfg.Async {
			return runio.StreamAsync(sys, final, sink)
		}
		return runio.Stream(sys, final, sink)
	}); err != nil {
		return out, err
	}
	if err := step("pdisk.Close", closeAll); err != nil {
		return out, err
	}
	out.store = ts.tally()
	return out, nil
}

// layers derives the per-layer metrics of one replay of n records.
// concurrent says the store's operations overlapped the layer spans
// (async I/O), so they are not subtracted from the spans' self time.
func (o replayOut) layers(tr *tracer, n int, concurrent bool) map[string]float64 {
	self := func(name string) float64 {
		return selfTime(tr.spans[o.phase[name]].iv(), o.store.log, concurrent).Seconds()
	}
	st := o.stats
	uniqueBlocks := o.mergeBlocksRead - st.BlocksReread
	minReads := math.Ceil(float64(uniqueBlocks) / float64(st.D))
	l := map[string]float64{
		"runform.ingest_s":               self(spanIngest),
		"runform.form_s":                 self(spanForm),
		"srm.merge_s":                    self(spanMerge),
		"runio.egest_s":                  self(spanEgest),
		"pdisk.peak_store_bytes_per_rec": float64(o.store.peak) / float64(n),
		"trace.unattributed_frac":        tr.unattributed(o.root),
	}
	addStoreLayers(l, o.store)
	addSortLayers(l, st, o.mergeBlocksRead, minReads)
	return l
}

// addStoreLayers reports the block operations a timedStore beneath the
// System saw.
func addStoreLayers(l map[string]float64, t storeTally) {
	l["pdisk.read_calls"] = float64(t.calls[opRead])
	l["pdisk.write_calls"] = float64(t.calls[opWrite])
	l["pdisk.free_calls"] = float64(t.calls[opFree])
	l["pdisk.read_s"] = t.busy[opRead].Seconds()
	l["pdisk.write_s"] = t.busy[opWrite].Seconds()
	l["pdisk.read_ns_per_block"] = perCall(t, opRead)
	l["pdisk.write_ns_per_block"] = perCall(t, opWrite)
}

func perCall(t storeTally, kind int) float64 {
	if t.calls[kind] == 0 {
		return 0
	}
	return float64(t.busy[kind].Nanoseconds()) / float64(t.calls[kind])
}

// addSortLayers reports a sort's I/O accounting: run formation, the merge
// passes, virtual flushing's re-reads and the paper's read overhead v —
// merge reads over the ⌈blocks/D⌉ reads that reading every block once at
// full parallelism would take.
func addSortLayers(l map[string]float64, st srmsort.Stats, mergeBlocksRead int64, minReads float64) {
	l["runform.initial_runs"] = float64(st.InitialRuns)
	l["runform.io_ops"] = float64(st.RunFormationReads + st.RunFormationWrites)
	l["srm.merge_passes"] = float64(st.MergePasses)
	l["srm.read_ops"] = float64(st.MergeReads)
	l["srm.write_ops"] = float64(st.MergeWrites)
	l["srm.blocks_reread"] = float64(st.BlocksReread)
	l["srm.reread_frac"] = ratio(float64(st.BlocksReread), float64(mergeBlocksRead))
	l["srm.read_overhead_v"] = ratio(float64(st.MergeReads), minReads)
	l["srm.read_parallelism"] = ratio(float64(mergeBlocksRead), float64(st.MergeReads))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sameStats reports whether two sorts' Stats agree on every count and
// ratio (the health ledger, a wall-clock record, is left out).
func sameStats(a, b srmsort.Stats) bool {
	a.Health, b.Health = nil, nil
	return a == b
}
