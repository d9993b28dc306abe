// Package srm implements the paper's contribution: the Simple Randomized
// Mergesort merge procedure (Sections 5-6) and the full external mergesort
// built on it.
//
// The merge combines R striped runs using:
//
//   - the forecasting data structure (package forecast) to know, for every
//     disk, the smallest not-in-memory block on that disk;
//   - parallel reads (ParRead, Definition 5) that fetch that block from
//     every disk in a single I/O operation;
//   - virtual flushing (Flush, Definition 6) that evicts the
//     farthest-in-the-future blocks from memory with no I/O when a read
//     needs room;
//   - a run writer (package runio) that emits the output run in stripes of
//     D forecast-formatted blocks with perfect write parallelism.
//
// The I/O schedule follows Section 5.5 exactly: whenever the I/O system is
// free (the previous read's blocks have drained out of the M_D landing
// zone, i.e. |F_t| ≤ R+D) and there are blocks left on disk, a ParRead is
// issued — preceded, when the prefetch space is over budget and an on-disk
// block ranks below the in-memory surplus (OutRank_t ≤ extra), by the
// virtual flush Flush_t(extra − OutRank_t + 1).
//
// # One loop, two control flows
//
// Section 5 presents SRM as an I/O scheduler and an internal merge running
// concurrently: ParReads are issued as soon as the schedule allows, long
// before their blocks participate, so device latency hides behind merging
// (Lemma 1's "genuine prefetching ability"). Merge runs one loop in two
// modes. A sync merge collapses the two flows into one — every ReadBlocks
// blocks the merge for the full device latency. An async merge
// (MergeOpts.Async) keeps them separate: while a ParRead is in flight the
// merge keeps consuming records (the overlap window), and the output writer
// flushes completed stripes behind the merge's back (runio.NewWriterAsync,
// the M_W double buffer).
//
// The async mode makes exactly the decisions the sync mode makes, in the
// same order, from the same states — it differs only in what the CPU does
// while a read is physically in flight:
//
//  1. Every schedule decision (issue a ParRead? flush how much? which
//     blocks?) is made by the schedule core (package sched) from the FDS,
//     |F_t| (membuf occupancy), the stall set and the flush-rank tree.
//     Record consumption in the overlap window mutates none of these: it
//     only shortens leading blocks and, at most once, notes a depletion.
//  2. The window stops at exactly the records the merge may emit regardless
//     of the in-flight read: strictly below every stalled run's awaited key
//     and at most up to the first leading-block depletion. Runs the read
//     promotes start at their awaited key, so the records the window emits
//     are a prefix of what the post-pump consumer would emit.
//  3. Depletions, noted by either consumer, reach the core as block events
//     after the pump, and landing a read is the same core call in both
//     modes.
//
// Consequently the ParReads, flushes and block events are identical in both
// modes, and so are the trace events a MergeOpts.Sink sees, MergeStats and
// the output run — byte for byte, under any worker interleaving. The mode
// equivalence and async trace tests, and ../../async_equiv_test.go, check
// it.
//
// The schedule itself lives in package sched, shared with the simulators
// of packages sim and timesim; this package is its record consumer: the
// stall guard and block events around the merge kernel (ltree.Kernel,
// shared with every other merger), the super-span emission, the async
// overlap window, the run writer and the I/O calls.
package srm

import (
	"fmt"

	"srmsort/internal/ltree"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/sched"
	"srmsort/internal/trace"
)

// MergeStats reports what one merge did, in the paper's cost units: the
// schedule's counters (ReadOps including the InitialReads I_0, Flushes,
// BlocksFlushed, BlocksReread, MaxPrefetched), plus the output side.
type MergeStats struct {
	sched.Stats
	// WriteOps is the number of parallel write operations of the output.
	WriteOps int64
	// RecordsOut is the number of records in the merged output run.
	RecordsOut int
}

// merger is the record consumer of one in-progress merge; the schedule
// core decides its I/O. Run handles are indices into the runs slice. The
// record width R is the kernel's type parameter: fixed16 merges
// instantiate it at record.Rec16 (16-byte, pointer-free leading blocks),
// varlen merges at record.Record.
type merger[R record.KernelRecord] struct {
	sys  *pdisk.System
	runs []*runio.Run
	core *sched.Core[R]
	out  *runio.Writer[R]

	// k merges the runs' leading blocks: its heads are their unconsumed
	// tails, and a run is active iff its head is nonempty.
	k *ltree.Kernel[R]

	// cores > 1 consumes through the sharded super-span kernel
	// (pconsume.go); 1 is the kernel's serial repeat-winner gallop loop.
	cores   int
	scratch []R // super-span merge-back buffer, reused

	// async overlaps each ParRead with consumption (see the package doc).
	async bool
	// pendingRun is the run whose leading block a consumer depleted but
	// whose block event the loop has not processed yet (-1 when none), and
	// pendingKey is that block's last key. At most one depletion is pending:
	// consumption stops there.
	pendingRun int
	pendingKey record.Key
}

// onLead is the core's lead callback: recs becomes run h's leading block
// and the run joins the merge.
func (m *merger[R]) onLead(h, _ int, recs []R) { m.k.Push(h, recs) }

// MergeOpts selects how Merge executes. No option changes the output run,
// the statistics or the trace.
type MergeOpts struct {
	// Async overlaps I/O with internal merging: each ParRead is issued
	// asynchronously and the merge consumes records while it is in flight,
	// and output stripes are written behind the merge.
	Async bool
	// Cores > 1 computes each inter-block-event emission as one sharded
	// super-span (pconsume.go) over up to that many goroutines; 0 or 1 is
	// the serial repeat-winner gallop.
	Cores int
	// Sink, when non-nil, receives every parallel read, virtual flush,
	// depletion, stall and promotion as a trace.Event, in schedule order.
	// Pass a trace.Checker to verify the paper's scheduling invariants
	// online, or a trace.Recorder to render the schedule.
	Sink trace.Sink
}

// Merge merges the given runs (at most r of them — r is the merge order the
// memory was provisioned for) into a single output run written with id
// outID starting on disk outStartDisk. It returns the output run and the
// merge statistics. The type argument selects the kernel's record width
// and must match the representation of the runs' stored blocks (callers
// instantiate explicitly — nothing in the argument list names R).
func Merge[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r, outID, outStartDisk int, opts MergeOpts) (*runio.Run, MergeStats, error) {
	m, err := newMerger[R](sys, runs, r, outID, outStartDisk, opts)
	if err != nil {
		return nil, MergeStats{}, err
	}
	if err := m.loadInitialBlocks(); err != nil {
		return nil, MergeStats{}, err
	}
	// Variable-length leading blocks switch on the core's varlen rules,
	// as they switched on the kernel's.
	m.core.Varlen = m.k.Varlen()
	for !m.core.Done() {
		progress, err := m.pumpIO()
		if err != nil {
			return nil, MergeStats{}, err
		}
		if m.pendingRun < 0 {
			consumed, err := m.consume(true)
			if err != nil {
				return nil, MergeStats{}, err
			}
			progress += consumed
		}
		if h := m.pendingRun; h >= 0 {
			m.pendingRun = -1
			m.core.Deplete(h, m.pendingKey)
			progress++
		}
		if progress == 0 {
			m.core.NoProgress()
		}
	}
	outRun, err := m.out.Finish()
	if err != nil {
		return nil, MergeStats{}, err
	}
	return outRun, MergeStats{Stats: m.core.Stats, WriteOps: m.out.WriteOps(), RecordsOut: outRun.Records}, nil
}

// newMerger validates the merge inputs and assembles the merge state.
func newMerger[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r, outID, outStartDisk int, opts MergeOpts) (*merger[R], error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("srm: merge of zero runs")
	}
	if len(runs) > r {
		return nil, fmt.Errorf("srm: %d runs exceed merge order R=%d", len(runs), r)
	}
	for _, run := range runs {
		if run.NumBlocks() == 0 {
			return nil, fmt.Errorf("srm: run %d is empty", run.ID)
		}
	}
	newWriter := runio.NewWriter[R]
	if opts.Async {
		newWriter = runio.NewWriterAsync[R]
	}
	m := &merger[R]{
		sys:        sys,
		runs:       runs,
		out:        newWriter(sys, outID, outStartDisk),
		k:          ltree.NewKernel[R](len(runs), false),
		cores:      opts.Cores,
		async:      opts.Async,
		pendingRun: -1,
	}
	m.core = sched.New(runs, r, sys.D(), sys.D(), opts.Sink, m.onLead)
	return m, nil
}

// loadInitialBlocks is Step 1 of the algorithm: read block 0 of every run
// into M_L with the core's parallel reads (I_0 operations); each block 0
// carries the D forecast keys that seed the FDS. An async merge issues
// every read before it awaits the first.
func (m *merger[R]) loadInitialBlocks() error {
	batches := m.core.InitialBatches()
	futs := make([]*pdisk.ReadFuture, len(batches))
	addrs := func(handles []int) []pdisk.BlockAddr {
		as := make([]pdisk.BlockAddr, len(handles))
		for i, h := range handles {
			as[i] = m.runs[h].Addr(0)
		}
		return as
	}
	if m.async {
		for i, b := range batches {
			futs[i] = m.sys.ReadBlocksAsync(addrs(b))
		}
	}
	for i, handles := range batches {
		var blocks []pdisk.StoredBlock
		var err error
		if m.async {
			blocks, err = futs[i].Wait()
		} else {
			blocks, err = m.sys.ReadBlocks(addrs(handles))
		}
		if err != nil {
			if m.async {
				for _, rest := range futs[i+1:] {
					rest.Wait() // collect every issued request before unwinding
				}
			}
			return err
		}
		recs := make([][]R, len(blocks))
		forecasts := make([][]record.Key, len(blocks))
		for j, blk := range blocks {
			if len(blk.Forecast) != m.sys.D() {
				panic(fmt.Sprintf("srm: block 0 of run %d carries %d forecast keys, want D=%d",
					m.runs[handles[j]].ID, len(blk.Forecast), m.sys.D()))
			}
			recs[j], forecasts[j] = pdisk.RecsOf[R](blk), blk.Forecast
		}
		m.core.LandInitial(handles, recs, forecasts)
	}
	return nil
}

// pumpIO performs the parallel reads the core's schedule issues for as
// long as it issues them. An async merge consumes records while each read
// is in flight. It returns the number of reads performed plus records
// consumed.
func (m *merger[R]) pumpIO() (int, error) {
	progress := 0
	for m.core.CanRead() {
		picks := m.core.NextRead()
		addrs := make([]pdisk.BlockAddr, len(picks))
		for i, e := range picks {
			addrs[i] = m.runs[e.Run].Addr(e.BlockIdx)
		}
		var blocks []pdisk.StoredBlock
		var err error
		if !m.async {
			blocks, err = m.sys.ReadBlocks(addrs)
		} else {
			fut := m.sys.ReadBlocksAsync(addrs)
			if m.pendingRun < 0 {
				// Overlap window: merge records that are safe to emit
				// without the in-flight blocks.
				consumed, cerr := m.consume(false)
				if cerr != nil {
					fut.Wait() // collect the issued request before unwinding
					return progress, cerr
				}
				progress += consumed
			}
			blocks, err = fut.Wait()
		}
		if err != nil {
			return progress, err
		}
		m.core.Land(picks, func(i int) ([]R, record.Key) {
			if len(blocks[i].Forecast) != 1 {
				panic(fmt.Sprintf("srm: block %d of run %d carries %d forecast keys, want 1",
					picks[i].BlockIdx, m.runs[picks[i].Run].ID, len(blocks[i].Forecast)))
			}
			return pdisk.RecsOf[R](blocks[i]), blocks[i].Forecast[0]
		})
		progress++
	}
	return progress, nil
}

// consume runs the internal merge until one leading block is depleted (a
// block event: memory occupancy, and hence read feasibility, changes only
// then), or until the next record of the merge belongs to a stalled run —
// internal merge processing then "has to wait" (Section 5) for a ParRead to
// deliver that run's leading block. A depletion is noted in pendingRun;
// the merge loop hands it to the core as a block event. It returns the
// number of records written.
//
// The stall-heap minimum, fixed until the next block event, is the
// kernel's key bound, and stallInclusive selects how it binds. After the
// pump (true) a fixed-size record waits only on a strictly smaller stall
// key. In the overlap window (false) it also waits on an equal one: the
// in-flight read may be about to promote a stalled run, and with
// duplicate keys the tie-break could order that run's equal-keyed record
// first. Stopping on equality defers the decision to the post-pump call,
// which sees the selector state a sync merge sees. A varlen prefix tie
// always waits, because the awaited on-disk record could truly precede
// the active minimum.
//
// The kernel (see ltree.Kernel) writes the merged records straight into
// the output writer's forming block, which Commit then hands over.
func (m *merger[R]) consume(stallInclusive bool) (int, error) {
	sKey, haveStall := m.core.StallMin()
	m.k.SetBound(record.Key(sKey), haveStall, stallInclusive)
	if m.cores > 1 && !m.k.Varlen() {
		return m.consumeSuperSpan(sKey, haveStall, stallInclusive)
	}
	consumed := 0
	for {
		room := m.out.Room()
		n, h, ended := m.k.Fill(room)
		if ended {
			m.pendingRun, m.pendingKey = h, room[n-1].K()
		}
		if err := m.out.Commit(n); err != nil {
			return consumed, err
		}
		consumed += n
		if ended || n < len(room) {
			return consumed, nil
		}
	}
}
