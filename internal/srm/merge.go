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
//     blocks?) reads only the FDS, |F_t| (membuf occupancy), the stall set
//     and the flush-rank tree. Record consumption in the overlap window
//     mutates none of these: it only shortens leading blocks and, at most
//     once, releases a depleted leading block's M_L slot (which |F_t| does
//     not count) and notes the depletion.
//  2. The window stops at exactly the records the merge may emit regardless
//     of the in-flight read: strictly below every stalled run's awaited key
//     and at most up to the first leading-block depletion. Runs the read
//     promotes start at their awaited key, so the records the window emits
//     are a prefix of what the post-pump consumer would emit.
//  3. Depletions, noted by either consumer, are processed by the loop after
//     the pump — block event (promotion, stall or exhaustion, the only
//     consumption effect that changes |F_t|) and EventDeplete alike — and
//     landing a read runs the same landParRead in both modes.
//
// Consequently the ParReads, flushes and block events are identical in both
// modes, and so are the trace events a MergeOpts.Sink sees, MergeStats and
// the output run — byte for byte, under any worker interleaving. The mode
// equivalence and async trace tests, and ../../async_equiv_test.go, check
// it.
package srm

import (
	"fmt"

	"srmsort/internal/forecast"
	"srmsort/internal/iheap"
	"srmsort/internal/ltree"
	"srmsort/internal/membuf"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/trace"
)

// MergeStats reports what one merge did, in the paper's cost units.
type MergeStats struct {
	// ReadOps is the total number of parallel read operations, including
	// the InitialReads.
	ReadOps int64
	// WriteOps is the number of parallel write operations of the output.
	WriteOps int64
	// InitialReads is I_0, the reads of Step 1 that load the R leading
	// blocks.
	InitialReads int64
	// Flushes is the number of Flush_t invocations.
	Flushes int64
	// BlocksFlushed is the total number of blocks virtually flushed.
	BlocksFlushed int64
	// BlocksReread counts reads of blocks that had been flushed earlier —
	// the only I/O penalty flushing can cause.
	BlocksReread int64
	// MaxPrefetched is the high-water mark of |F_t| (at most R+2D).
	MaxPrefetched int
	// RecordsOut is the number of records in the merged output run.
	RecordsOut int
}

// merger holds the state of one in-progress merge. Run handles are indices
// into the runs slice. The record width R is the kernel's type parameter:
// fixed16 merges instantiate it at record.Rec16 (16-byte, pointer-free
// leading blocks), varlen merges at record.Record.
type merger[R record.KernelRecord] struct {
	sys  *pdisk.System
	r    int // merge order capacity (memory is provisioned for R runs)
	d    int
	runs []*runio.Run
	fds  *forecast.FDS
	mem  *membuf.Manager[R]
	out  *runio.Writer[R]

	lead      [][]R // unconsumed tail of each run's leading block
	leadIdx   []int // block index of the current leading block
	need      []int // block index awaited while stalled
	stalled   []bool
	active    *ltree.Tree // loser tree over active runs, keyed by their current record's key
	stallHeap *iheap.Heap // stalled runs keyed by their awaited block's first key
	exhausted int

	flushed map[[2]int]bool // blocks that were flushed at least once
	stats   MergeStats

	// cores > 1 consumes through the sharded super-span kernel
	// (pconsume.go); 1 is the serial per-winner gallop loop.
	cores   int
	scratch []R // super-span merge-back buffer, reused

	// varlen is set when the leading blocks carry variable-length records
	// (Ext != ""). Prefix words then only coarsen the true key order, so
	// the consumer compares (Key, Val) pairs, breaks prefix ties through
	// the loser tree's CompareExt callback, waits on prefix-equal stalls,
	// and gallops with exclusive bounds. Fixed-size merges never set it
	// and keep the historical byte-for-byte behavior.
	varlen bool

	sink trace.Sink // nil when tracing is off
	seq  int

	// async overlaps each ParRead with consumption (see the package doc).
	async bool
	// pendingRun is the run whose leading block a consumer depleted but
	// whose block event the loop has not processed yet (-1 when none), and
	// pendingKey is that block's last key. At most one depletion is pending:
	// consumption stops there.
	pendingRun int
	pendingKey record.Key
}

// emit sends an event to the trace sink, if any.
func (m *merger[R]) emit(kind trace.Kind, outRank int, blocks ...trace.BlockRef) {
	if m.sink == nil {
		return
	}
	m.sink.Observe(trace.Event{
		Kind:     kind,
		Seq:      m.seq,
		Blocks:   blocks,
		Occupied: m.mem.Occupied(),
		OutRank:  outRank,
	})
	m.seq++
}

// ref builds a trace.BlockRef for block idx of run handle h.
func (m *merger[R]) ref(h, idx int, key record.Key) trace.BlockRef {
	return trace.BlockRef{Run: h, Idx: idx, Disk: m.runs[h].Disk(idx), Key: key}
}

// setVarlen switches the merge into variable-length mode: prefix-word ties
// in the active loser tree are adjudicated by comparing the tied players'
// current head records with record.CompareExt. Idempotent; triggered by the
// first leading block that carries an Ext payload.
func (m *merger[R]) setVarlen() {
	if m.varlen {
		return
	}
	m.varlen = true
	m.active.SetTie(func(a, b int) int {
		return record.CompareExt(m.lead[a][0].X(), m.lead[b][0].X())
	})
}

// pushHead activates run h in the loser tree keyed by its current head
// record. Variable-length merges push the (Key, Val) prefix pair so prefix
// ties narrow to the CompareExt callback; fixed-size merges push the key
// alone (val 0), bit-for-bit the historical order.
func (m *merger[R]) pushHead(h int) {
	r := m.lead[h][0]
	if m.varlen {
		m.active.PushKV(h, uint64(r.K()), r.V())
	} else {
		m.active.Push(h, uint64(r.K()))
	}
}

// updateHead re-keys live run h after its head record advanced; the
// winner-replay fast path of the loser tree. Same prefix-pair rule as
// pushHead.
func (m *merger[R]) updateHead(h int) {
	r := m.lead[h][0]
	if m.varlen {
		m.active.UpdateKV(h, uint64(r.K()), r.V())
	} else {
		m.active.Update(h, uint64(r.K()))
	}
}

// MergeOpts selects how Merge executes. No option changes the output run,
// the statistics or the trace.
type MergeOpts struct {
	// Async overlaps I/O with internal merging: each ParRead is issued
	// asynchronously and the merge consumes records while it is in flight,
	// and output stripes are written behind the merge.
	Async bool
	// Cores > 1 computes each inter-block-event emission as one sharded
	// super-span (pconsume.go) over up to that many goroutines; 0 or 1 is
	// the serial per-winner gallop.
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
	for m.exhausted < len(m.runs) {
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
			// Block event: the leading block of run h is depleted.
			m.pendingRun = -1
			m.emit(trace.EventDeplete, 0, m.ref(h, m.leadIdx[h], m.pendingKey))
			m.blockEvent(h)
			progress++
		}
		if progress == 0 {
			if m.forceRoom() {
				continue
			}
			panic(fmt.Sprintf(
				"srm: schedule deadlock (Lemma 1 violated): |F|=%d R=%d D=%d active=%d fds=%d",
				m.mem.Occupied(), m.r, m.d, m.active.Len(), m.fds.Len()))
		}
	}
	return m.finish()
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
	return &merger[R]{
		sys:        sys,
		r:          r,
		d:          sys.D(),
		runs:       runs,
		fds:        forecast.New(sys.D(), len(runs)),
		mem:        membuf.New[R](r, sys.D()),
		out:        newWriter(sys, outID, outStartDisk),
		lead:       make([][]R, len(runs)),
		leadIdx:    make([]int, len(runs)),
		need:       make([]int, len(runs)),
		stalled:    make([]bool, len(runs)),
		active:     ltree.NewRetired(len(runs)),
		stallHeap:  iheap.New(len(runs)),
		flushed:    make(map[[2]int]bool),
		cores:      opts.Cores,
		sink:       opts.Sink,
		async:      opts.Async,
		pendingRun: -1,
	}, nil
}

// finish completes the output run and assembles the merge statistics.
func (m *merger[R]) finish() (*runio.Run, MergeStats, error) {
	outRun, err := m.out.Finish()
	if err != nil {
		return nil, MergeStats{}, err
	}
	m.stats.MaxPrefetched = m.mem.MaxOccupied
	m.stats.RecordsOut = outRun.Records
	m.stats.WriteOps = m.out.WriteOps()
	return outRun, m.stats, nil
}

// loadInitialBlocks is Step 1 of the algorithm: read block 0 of every run
// into M_L with parallel reads (I_0 operations), and seed the FDS from the
// D forecast keys implanted in each block 0. The batches are fixed by the
// run layout — no decision depends on their contents — so an async merge
// issues every operation before it awaits the first.
func (m *merger[R]) loadInitialBlocks() error {
	pending := make([][]int, m.d) // per disk: run handles whose block 0 lives there
	for h, run := range m.runs {
		pending[run.Disk(0)] = append(pending[run.Disk(0)], h)
	}
	type batch struct {
		addrs   []pdisk.BlockAddr
		handles []int
		fut     *pdisk.ReadFuture
	}
	var batches []batch
	for {
		var b batch
		for disk := 0; disk < m.d; disk++ {
			if len(pending[disk]) == 0 {
				continue
			}
			h := pending[disk][0]
			pending[disk] = pending[disk][1:]
			b.addrs = append(b.addrs, m.runs[h].Addr(0))
			b.handles = append(b.handles, h)
		}
		if len(b.addrs) == 0 {
			break
		}
		if m.async {
			b.fut = m.sys.ReadBlocksAsync(b.addrs)
		}
		batches = append(batches, b)
	}
	for i, b := range batches {
		var blocks []pdisk.StoredBlock
		var err error
		if m.async {
			blocks, err = b.fut.Wait()
		} else {
			blocks, err = m.sys.ReadBlocks(b.addrs)
		}
		if err != nil {
			for _, rest := range batches[i+1:] {
				if rest.fut != nil {
					rest.fut.Wait() // collect every issued request before unwinding
				}
			}
			return err
		}
		m.stats.InitialReads++
		m.stats.ReadOps++
		if m.sink != nil {
			refs := make([]trace.BlockRef, len(blocks))
			for j, blk := range blocks {
				refs[j] = m.ref(b.handles[j], 0, record.FirstKeyOf(pdisk.RecsOf[R](blk)))
			}
			m.emit(trace.EventParRead, 0, refs...)
		}
		m.seedFromLeadingBlocks(b.handles, blocks)
	}
	return nil
}

// seedFromLeadingBlocks registers one landed batch of block-0 reads: FDS
// seeding from the implanted keys and promotion into M_L.
func (m *merger[R]) seedFromLeadingBlocks(handles []int, blocks []pdisk.StoredBlock) {
	recs := make([][]R, len(blocks))
	for i, blk := range blocks {
		recs[i] = pdisk.RecsOf[R](blk)
	}
	for _, rs := range recs {
		if len(rs) > 0 && rs[0].X() != "" {
			m.setVarlen()
			break
		}
	}
	for i, blk := range blocks {
		h := handles[i]
		if len(blk.Forecast) != m.d {
			panic(fmt.Sprintf("srm: block 0 of run %d carries %d forecast keys, want D=%d",
				m.runs[h].ID, len(blk.Forecast), m.d))
		}
		for t := 1; t <= m.d; t++ {
			if key := blk.Forecast[t-1]; key != record.MaxKey {
				m.fds.Set(m.runs[h].Disk(t), h, t, key)
			}
		}
		m.lead[h] = recs[i]
		m.leadIdx[h] = 0
		m.mem.LeadingAcquired()
		m.pushHead(h)
		m.emit(trace.EventPromote, 0, m.ref(h, 0, record.FirstKeyOf(recs[i])))
	}
}

// pumpIO issues parallel reads for as long as the schedule of Section 5.5
// allows: the M_D landing zone has drained (|F_t| ≤ R+D) and some block
// remains on disk. Case 2c virtually flushes before reading. An async merge
// consumes records while each read is in flight. It returns the number of
// reads performed plus records consumed.
func (m *merger[R]) pumpIO() (int, error) {
	progress := 0
	for m.fds.Len() > 0 && m.mem.Occupied() <= m.r+m.d {
		m.maybeFlush()
		addrs, entries := m.chooseParRead()
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
		m.landParRead(blocks, addrs, entries)
		progress++
	}
	return progress, nil
}

// maybeFlush applies case 2c of the Section 5.5 schedule: when the
// prefetch space is over budget and an on-disk block ranks below the
// in-memory surplus, virtually flush the surplus difference before the
// next read.
func (m *merger[R]) maybeFlush() {
	if occupied := m.mem.Occupied(); occupied > m.r {
		extra := occupied - m.r // 1..D
		minS := m.smallestOnDisk()
		outRank := m.mem.CountLessBlock(minS.Key, minS.Run, minS.BlockIdx) + 1
		if outRank <= extra {
			m.flush(extra-outRank+1, outRank)
		}
	}
}

// smallestOnDisk returns the smallest block of S_t — the set of per-disk
// smallest on-disk blocks — under the composite (key, run, idx) total
// order that the rank structure uses (ties on key alone would let flush
// victims oscillate with the fetched block; see membuf). pumpIO only calls
// it when the FDS is nonempty.
func (m *merger[R]) smallestOnDisk() forecast.Entry {
	var best forecast.Entry
	found := false
	for disk := 0; disk < m.d; disk++ {
		e, ok := m.fds.Smallest(disk)
		if !ok {
			continue
		}
		if !found || e.Key < best.Key ||
			(e.Key == best.Key && (e.Run < best.Run ||
				(e.Run == best.Run && e.BlockIdx < best.BlockIdx))) {
			best = e
			found = true
		}
	}
	if !found {
		panic("srm: smallestOnDisk with empty FDS")
	}
	return best
}

// flush performs Flush_t(n): forget the n highest-ranked prefetched blocks
// and hand their keys back to the FDS. No I/O happens.
func (m *merger[R]) flush(n, outRank int) {
	victims := m.mem.FlushVictims(n)
	m.stats.Flushes++
	m.stats.BlocksFlushed += int64(len(victims))
	refs := make([]trace.BlockRef, 0, len(victims))
	for _, v := range victims {
		disk := m.runs[v.Run].Disk(v.Idx)
		m.fds.Set(disk, v.Run, v.Idx, v.FirstKey())
		m.flushed[[2]int{v.Run, v.Idx}] = true
		refs = append(refs, m.ref(v.Run, v.Idx, v.FirstKey()))
	}
	m.emit(trace.EventFlush, outRank, refs...)
}

// chooseParRead selects the blocks of ParRead_t — the smallest pending
// block of every disk — without touching any state: the choice is a pure
// function of the FDS and the stall set (both identical at pick time in
// sync and async execution), so the two modes make identical picks.
func (m *merger[R]) chooseParRead() ([]pdisk.BlockAddr, []forecast.Entry) {
	var addrs []pdisk.BlockAddr
	var entries []forecast.Entry
	for disk := 0; disk < m.d; disk++ {
		e, ok := m.fds.Smallest(disk)
		if !ok {
			continue
		}
		if m.varlen {
			e = m.preferAwaited(disk, e)
		}
		addrs = append(addrs, m.runs[e.Run].Addr(e.BlockIdx))
		entries = append(entries, e)
	}
	if len(addrs) == 0 {
		panic("srm: parRead with empty FDS")
	}
	return addrs, entries
}

// preferAwaited substitutes a stalled run's awaited block for the disk's
// smallest entry e when the two PREFIX-tie. Prefix words only coarsen the
// true key order, so entries with equal words carry no order between them
// and either choice satisfies the schedule; but reading the tied victim
// first can livelock the varlen merge: the consumer waits on the awaited
// record (the tie means it could truly precede the active minimum), the
// landing zone fills, forceRoom flushes the just-read tied block as the
// farthest-future victim, and the next pump re-reads it ahead of the
// awaited one, forever. Preferring the awaited block delivers the record
// the consumer is blocked on instead. Ties among several awaited entries
// break by (run, block) so the pick stays deterministic.
func (m *merger[R]) preferAwaited(disk int, e forecast.Entry) forecast.Entry {
	if m.stalled[e.Run] && m.need[e.Run] == e.BlockIdx {
		return e // the smallest entry is itself awaited
	}
	best := e
	for h, st := range m.stalled {
		if !st || m.runs[h].Disk(m.need[h]) != disk {
			continue
		}
		ne, ok := m.fds.Peek(disk, h)
		if !ok || ne.BlockIdx != m.need[h] || ne.Key != e.Key {
			continue
		}
		if best == e && !(m.stalled[best.Run] && m.need[best.Run] == best.BlockIdx) {
			best = ne // first awaited candidate displaces the non-awaited min
			continue
		}
		if ne.Run < best.Run || (ne.Run == best.Run && ne.BlockIdx < best.BlockIdx) {
			best = ne
		}
	}
	return best
}

// landParRead applies a completed ParRead to the merge state: FDS
// updates, stalled-run promotions, M_D insertions and statistics, in
// both modes.
func (m *merger[R]) landParRead(blocks []pdisk.StoredBlock, addrs []pdisk.BlockAddr, entries []forecast.Entry) {
	m.stats.ReadOps++
	var readRefs, promoted []trace.BlockRef
	for i, blk := range blocks {
		e := entries[i]
		rs := pdisk.RecsOf[R](blk)
		if m.mem.Has(e.Run, e.BlockIdx) {
			panic(fmt.Sprintf("srm: re-read of in-memory block run=%d idx=%d", e.Run, e.BlockIdx))
		}
		if len(blk.Forecast) != 1 {
			panic(fmt.Sprintf("srm: block %d of run %d carries %d forecast keys, want 1",
				e.BlockIdx, m.runs[e.Run].ID, len(blk.Forecast)))
		}
		if got := record.FirstKeyOf(rs); got != e.Key {
			panic(fmt.Sprintf("srm: FDS predicted key %d for run %d block %d, block starts with %d",
				e.Key, e.Run, e.BlockIdx, got))
		}
		succKey := blk.Forecast[0]
		m.fds.NoteRead(addrs[i].Disk, e.Run, e.BlockIdx, succKey)
		if m.flushed[[2]int{e.Run, e.BlockIdx}] {
			m.stats.BlocksReread++
		}
		if m.sink != nil {
			readRefs = append(readRefs, m.ref(e.Run, e.BlockIdx, record.FirstKeyOf(rs)))
		}
		if m.stalled[e.Run] && m.need[e.Run] == e.BlockIdx {
			// Exchange 2 of Section 5.1: the read block is the leading
			// block of a stalled run; it moves straight to M_L.
			m.lead[e.Run] = rs
			m.leadIdx[e.Run] = e.BlockIdx
			m.stalled[e.Run] = false
			m.stallHeap.Remove(e.Run)
			m.mem.LeadingAcquired()
			m.pushHead(e.Run)
			if m.sink != nil {
				promoted = append(promoted, m.ref(e.Run, e.BlockIdx, record.FirstKeyOf(rs)))
			}
			continue
		}
		m.mem.Insert(&membuf.Block[R]{
			Run:     e.Run,
			Idx:     e.BlockIdx,
			Records: rs,
			SuccKey: succKey,
		})
	}
	if m.sink != nil {
		m.emit(trace.EventParRead, 0, readRefs...)
		for _, p := range promoted {
			m.emit(trace.EventPromote, 0, p)
		}
	}
}

// forceRoom is the variable-length liveness valve. A varlen consumer waits
// whenever the stall minimum prefix-ties the active minimum (the awaited
// on-disk record could truly precede it), a case the fixed-size sync
// consumer resolves by emitting — so varlen alone can reach "landing zone
// full, nothing consumable": |F| > R+D blocks no read, and the tie blocks
// the merge. The valve virtually flushes the surplus (the farthest-future
// prefetched blocks; no I/O, possible rereads later) so the next pump can
// read the awaited block. Fixed-size merges never take this path and keep
// Lemma 1's schedule untouched.
func (m *merger[R]) forceRoom() bool {
	extra := m.mem.Occupied() - (m.r + m.d)
	if !m.varlen || m.fds.Len() == 0 || extra <= 0 {
		return false
	}
	m.flush(extra, 0)
	return true
}

// consume runs the internal merge until one leading block is depleted (a
// block event: memory occupancy, and hence read feasibility, changes only
// then), or until the next record of the merge belongs to a stalled run —
// internal merge processing then "has to wait" (Section 5) for a ParRead to
// deliver that run's leading block. A depletion releases the block's M_L
// slot and is noted in pendingRun; the merge loop processes its block
// event. It returns the number of records written.
//
// stallInclusive selects the stall guard. After the pump (true) a
// fixed-size record waits only on a strictly smaller stall key. In the
// overlap window (false) it also waits on an equal one: the in-flight read
// may be about to promote a stalled run, and with duplicate keys the
// tie-break could order that run's equal-keyed record first. Stopping on
// equality defers the decision to the post-pump call, which sees the
// selector state a sync merge sees. A varlen prefix tie always waits,
// because the awaited on-disk record could truly precede the active
// minimum.
//
// Emission gallops: when run h wins, the span of its leading block that h
// would emit one record at a time — bounded by the runner-up's key and the
// stall-heap minimum, both constant while h keeps winning — is located by
// binary search and written with one AppendBlock call and one loser-tree
// update, instead of a tree round-trip per record.
func (m *merger[R]) consume(stallInclusive bool) (int, error) {
	if m.cores > 1 && !m.varlen {
		return m.consumeSuperSpan(stallInclusive)
	}
	consumed := 0
	for m.active.Len() > 0 {
		h, hKey := m.active.Min()
		haveStall := m.stallHeap.Len() > 0
		var sKey uint64
		if haveStall {
			if _, sKey = m.stallHeap.Min(); sKey < hKey || (sKey == hKey && (!stallInclusive || m.varlen)) {
				// The globally next record may be on disk in a stalled
				// run's awaited block; the merge must wait for I/O.
				return consumed, nil
			}
		}
		span := m.gallopSpan(h, haveStall, sKey, stallInclusive)
		if err := m.out.AppendBlock(m.lead[h][:span]); err != nil {
			return consumed, err
		}
		consumed += span
		lastKey := m.lead[h][span-1].K()
		m.lead[h] = m.lead[h][span:]
		if len(m.lead[h]) > 0 {
			m.updateHead(h)
			continue
		}
		m.mem.LeadingReleased()
		m.active.Remove(h)
		m.pendingRun, m.pendingKey = h, lastKey
		return consumed, nil
	}
	return consumed, nil
}

// gallopSpan returns how many leading records of run h (the current
// winner) may be emitted before the selector must re-decide: records that
// beat the runner-up under the (key, run index) tie-break, and — when a
// run is stalled — records admitted by the stall guard (inclusive after
// the pump, exclusive in the overlap window). The guards the per-record
// loop would evaluate are constant across the span, so bulk emission is
// exactly equivalent; both bounds admit the current first record, so the
// span is ≥ 1 and the merge always progresses.
func (m *merger[R]) gallopSpan(h int, haveStall bool, sKey uint64, stallInclusive bool) int {
	b := m.lead[h]
	span := len(b)
	if m.varlen {
		// Prefix words only coarsen the true order, so bulk emission may
		// cover only records STRICTLY below both bounds at the prefix-pair
		// level — strict prefix inequality implies strict true inequality.
		// A zero challenger span still emits one record: the loser tree
		// adjudicated the tie by CompareExt, so h's head truly precedes the
		// runner-up's. The stall bound never reaches zero — the caller's
		// guard admits h only when hKey is strictly below sKey.
		if _, chKey, chVal, ok := m.active.ChallengerKV(); ok {
			if n := record.CountBelowKV(b, record.Key(chKey), chVal, false); n < span {
				span = n
			}
		}
		if span == 0 {
			span = 1
		}
		if haveStall {
			if n := record.CountBelow(b, record.Key(sKey), false); n < span {
				span = n
			}
		}
		return span
	}
	if ch, chKey, ok := m.active.Challenger(); ok {
		// h keeps winning while its key is below the runner-up's, or equal
		// with the lower run index.
		if n := record.CountBelow(b, record.Key(chKey), h < ch); n < span {
			span = n
		}
	}
	if haveStall {
		if n := record.CountBelow(b, record.Key(sKey), stallInclusive); n < span {
			span = n
		}
	}
	return span
}

// blockEvent resolves the depletion of run h's leading block: the run is
// exhausted, its successor is promoted from M_R (Exchange 1 of Section
// 5.1), or the run stalls awaiting a ParRead. The caller has already
// released the M_L slot and retired h in the active loser tree.
func (m *merger[R]) blockEvent(h int) {
	next := m.leadIdx[h] + 1
	switch {
	case next >= m.runs[h].NumBlocks():
		m.exhausted++
	case m.mem.Has(h, next):
		// Exchange 1 of Section 5.1: promote the successor from M_R.
		b := m.mem.Take(h, next)
		m.lead[h] = b.Records
		m.leadIdx[h] = next
		m.mem.LeadingAcquired()
		m.pushHead(h)
		m.emit(trace.EventPromote, 0, m.ref(h, next, b.FirstKey()))
	default:
		// The successor is still on disk: the run stalls until a
		// ParRead delivers it. Its first key is what the FDS tracks
		// for this (disk, run) pair — every earlier block of the run
		// on that disk has been consumed already.
		e, ok := m.fds.Peek(m.runs[h].Disk(next), h)
		if !ok || e.BlockIdx != next {
			panic(fmt.Sprintf("srm: stalled run %d needs block %d but FDS tracks %+v (ok=%v)",
				h, next, e, ok))
		}
		m.stalled[h] = true
		m.need[h] = next
		m.stallHeap.Push(h, uint64(e.Key))
		m.emit(trace.EventStall, 0, m.ref(h, next, e.Key))
	}
}
