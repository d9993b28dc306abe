// Package sched is the I/O schedule of Simple Randomized Mergesort
// (Section 5.5), written once for all three mergers: the record-moving
// merger (package srm), the block-boundary simulator behind Tables 3 and
// 4 (package sim) and, through sim, the timed simulator (package
// timesim).
//
// A Core owns everything the schedule decides from: the forecasting data
// structure (package forecast), the prefetched set F_t (package membuf),
// the stalled runs and the blocks flushed so far. Its callers feed it
// block events only, never records, in this protocol:
//
//  1. Step 1. InitialBatches lists the parallel reads that load block 0 of
//     every run; the caller performs each and hands the blocks to
//     LandInitial.
//  2. Whenever CanRead holds, NextRead chooses the next ParRead (after the
//     virtual Flush of case 2c, if due); the caller performs it and hands
//     the blocks to Land.
//  3. The caller consumes its leading blocks. StallMin bounds what it may
//     emit; each fully consumed leading block goes to Deplete, which
//     exhausts the run, promotes its successor from M_R or stalls it.
//  4. A loop iteration of the caller that neither read nor consumed calls
//     NoProgress.
//
// Whenever a block becomes its run's leading block, the Core hands it to
// the caller's lead function. Every decision is a pure function of the
// Core's state, so callers that feed the same block events see the same
// reads, flushes, statistics and trace events.
package sched

import (
	"fmt"
	"sort"

	"srmsort/internal/forecast"
	"srmsort/internal/iheap"
	"srmsort/internal/membuf"
	"srmsort/internal/record"
	"srmsort/internal/trace"
)

// Run is the layout of one input run: its block count and the disk each
// block lives on.
type Run interface {
	NumBlocks() int
	Disk(i int) int
}

// Stats counts the schedule's work in the paper's cost units.
type Stats struct {
	// ReadOps is the total number of parallel read operations, including
	// the InitialReads.
	ReadOps int64
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
}

// Core is the schedule state of one merge of R-typed blocks.
type Core[R record.KernelRecord] struct {
	// Stats is updated as the merge proceeds.
	Stats Stats
	// Varlen switches on the variable-length rules: the read choice
	// prefers a stalled run's prefix-tied awaited block (preferAwaited),
	// and NoProgress makes room instead of panicking (forceRoom). The
	// caller sets it when a leading block carries an Ext payload.
	Varlen bool

	r, d, w   int
	runs      []Run
	fds       *forecast.FDS
	mem       *membuf.Manager[R]
	lead      func(h, idx int, recs []R)
	leadIdx   []int // block index of each run's current leading block
	need      []int // block index awaited while stalled
	stalled   []bool
	stallHeap *iheap.Heap // stalled runs keyed by their awaited block's first key
	flushed   map[[2]int]bool
	exhausted int
	picks     []forecast.Entry // NextRead's result, reused

	sink trace.Sink // nil when tracing is off
	seq  int
}

// New returns the schedule state for merging runs with merge-order
// capacity r (memory is provisioned for r runs) on d disks whose I/O
// channel carries w ≤ d blocks per operation. lead receives every block
// that becomes its run's leading block: run handle h (the index into
// runs), block index idx and the block's records. sink, when non-nil,
// receives every schedule event.
func New[R record.KernelRecord, U Run](runs []U, r, d, w int, sink trace.Sink, lead func(h, idx int, recs []R)) *Core[R] {
	rs := make([]Run, len(runs))
	for i, run := range runs {
		rs[i] = run
	}
	return &Core[R]{
		r: r, d: d, w: w,
		runs:      rs,
		fds:       forecast.New(d, len(runs)),
		mem:       membuf.New[R](r, d),
		lead:      lead,
		leadIdx:   make([]int, len(runs)),
		need:      make([]int, len(runs)),
		stalled:   make([]bool, len(runs)),
		stallHeap: iheap.New(len(runs)),
		flushed:   make(map[[2]int]bool),
		sink:      sink,
	}
}

// emit sends an event to the trace sink, if any.
func (c *Core[R]) emit(kind trace.Kind, outRank int, blocks ...trace.BlockRef) {
	if c.sink == nil {
		return
	}
	c.sink.Observe(trace.Event{
		Kind:     kind,
		Seq:      c.seq,
		Blocks:   blocks,
		Occupied: c.mem.Occupied(),
		OutRank:  outRank,
	})
	c.seq++
}

// note emits a one-block event. It checks for a sink before building the
// event, so an untraced merge allocates nothing per block event.
func (c *Core[R]) note(kind trace.Kind, h, idx int, key record.Key) {
	if c.sink != nil {
		c.emit(kind, 0, c.ref(h, idx, key))
	}
}

// ref builds a trace.BlockRef for block idx of run h.
func (c *Core[R]) ref(h, idx int, key record.Key) trace.BlockRef {
	return trace.BlockRef{Run: h, Idx: idx, Disk: c.runs[h].Disk(idx), Key: key}
}

// Done reports whether every run is exhausted.
func (c *Core[R]) Done() bool { return c.exhausted == len(c.runs) }

// StallMin returns the smallest first key among the blocks stalled runs
// await; ok is false when no run is stalled. The merge must not emit past
// it before a ParRead delivers that block.
func (c *Core[R]) StallMin() (key uint64, ok bool) {
	if c.stallHeap.Len() == 0 {
		return 0, false
	}
	_, key = c.stallHeap.Min()
	return key, true
}

// InitialBatches returns the parallel reads of Step 1 as the run handles
// whose block 0 each one fetches, in disk order: at most one block per
// disk and w per read. Each read serves the disks with the most blocks
// left, so the load takes max(per-disk maximum, ⌈R/w⌉) reads, the
// minimum. No batch depends on block contents, so a caller may issue them
// all before the first lands.
func (c *Core[R]) InitialBatches() [][]int {
	queues := make([][]int, c.d)
	for h, run := range c.runs {
		queues[run.Disk(0)] = append(queues[run.Disk(0)], h)
	}
	var batches [][]int
	for {
		var disks []int
		for disk, q := range queues {
			if len(q) > 0 {
				disks = append(disks, disk)
			}
		}
		if len(disks) == 0 {
			return batches
		}
		if len(disks) > c.w {
			sort.SliceStable(disks, func(a, b int) bool { return len(queues[disks[a]]) > len(queues[disks[b]]) })
			disks = disks[:c.w]
			sort.Ints(disks)
		}
		batch := make([]int, len(disks))
		for i, disk := range disks {
			batch[i], queues[disk] = queues[disk][0], queues[disk][1:]
		}
		batches = append(batches, batch)
	}
}

// LandInitial applies one landed read of Step 1: recs[i] is block 0 of run
// handles[i], and forecasts[i] the first keys of that run's blocks 1..D
// implanted in it (MaxKey, or a shorter slice, past the run's end). It
// seeds the FDS and makes each block its run's leading block.
func (c *Core[R]) LandInitial(handles []int, recs [][]R, forecasts [][]record.Key) {
	c.Stats.InitialReads++
	c.Stats.ReadOps++
	if c.sink != nil {
		refs := make([]trace.BlockRef, len(handles))
		for i, h := range handles {
			refs[i] = c.ref(h, 0, record.FirstKeyOf(recs[i]))
		}
		c.emit(trace.EventParRead, 0, refs...)
	}
	for i, h := range handles {
		for t, key := range forecasts[i] {
			if key != record.MaxKey {
				c.fds.Set(c.runs[h].Disk(t+1), h, t+1, key)
			}
		}
		c.acquire(h, 0, recs[i])
		c.note(trace.EventPromote, h, 0, record.FirstKeyOf(recs[i]))
	}
}

// acquire makes recs, block idx of run h, the run's leading block.
func (c *Core[R]) acquire(h, idx int, recs []R) {
	c.leadIdx[h] = idx
	c.mem.LeadingAcquired()
	c.lead(h, idx, recs)
}

// CanRead reports whether the schedule issues a ParRead now: blocks remain
// on disk and the previous read has drained out of the M_D landing zone
// (|F_t| ≤ R+D).
func (c *Core[R]) CanRead() bool {
	return c.fds.Len() > 0 && c.mem.Occupied() <= c.r+c.d
}

// NextRead returns the blocks of the next ParRead, which the caller must
// perform and pass to Land before calling NextRead again. When the
// prefetch space is over budget and an on-disk block ranks below the
// in-memory surplus (case 2c: OutRank_t ≤ extra), it first virtually
// flushes Flush_t(extra − OutRank_t + 1).
//
// The read takes the smallest pending block of every disk, or, when more
// disks have one than the channel carries, the w smallest-keyed of them.
// The choice reads only the FDS and the stall set, so every caller makes
// the same picks from the same state.
func (c *Core[R]) NextRead() []forecast.Entry {
	if occupied := c.mem.Occupied(); occupied > c.r {
		extra := occupied - c.r // 1..D
		minS := c.smallestOnDisk()
		outRank := c.mem.CountLessBlock(minS.Key, minS.Run, minS.BlockIdx) + 1
		if outRank <= extra {
			c.flush(extra-outRank+1, outRank)
		}
	}
	c.picks = c.picks[:0]
	for disk := 0; disk < c.d; disk++ {
		e, ok := c.fds.Smallest(disk)
		if !ok {
			continue
		}
		if c.Varlen {
			e = c.preferAwaited(disk, e)
		}
		c.picks = append(c.picks, e)
	}
	if len(c.picks) == 0 {
		panic("sched: NextRead with no block left on disk")
	}
	if len(c.picks) > c.w {
		sort.Slice(c.picks, func(a, b int) bool { return c.picks[a].Key < c.picks[b].Key })
		c.picks = c.picks[:c.w]
	}
	return c.picks
}

// smallestOnDisk returns the smallest block of S_t — the set of per-disk
// smallest on-disk blocks — under the composite (key, run, idx) total
// order that the rank structure uses (ties on key alone would let flush
// victims oscillate with the fetched block; see membuf).
func (c *Core[R]) smallestOnDisk() forecast.Entry {
	var best forecast.Entry
	found := false
	for disk := 0; disk < c.d; disk++ {
		e, ok := c.fds.Smallest(disk)
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
		panic("sched: smallestOnDisk with empty FDS")
	}
	return best
}

// flush performs Flush_t(n): forget the n highest-ranked prefetched blocks
// and hand their keys back to the FDS. No I/O happens.
func (c *Core[R]) flush(n, outRank int) {
	victims := c.mem.FlushVictims(n)
	c.Stats.Flushes++
	c.Stats.BlocksFlushed += int64(len(victims))
	var refs []trace.BlockRef
	for _, v := range victims {
		c.fds.Set(c.runs[v.Run].Disk(v.Idx), v.Run, v.Idx, v.FirstKey())
		c.flushed[[2]int{v.Run, v.Idx}] = true
		if c.sink != nil {
			refs = append(refs, c.ref(v.Run, v.Idx, v.FirstKey()))
		}
	}
	c.emit(trace.EventFlush, outRank, refs...)
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
func (c *Core[R]) preferAwaited(disk int, e forecast.Entry) forecast.Entry {
	if c.stalled[e.Run] && c.need[e.Run] == e.BlockIdx {
		return e // the smallest entry is itself awaited
	}
	best := e
	for h, st := range c.stalled {
		if !st || c.runs[h].Disk(c.need[h]) != disk {
			continue
		}
		ne, ok := c.fds.Peek(disk, h)
		if !ok || ne.BlockIdx != c.need[h] || ne.Key != e.Key {
			continue
		}
		if best == e && !(c.stalled[best.Run] && c.need[best.Run] == best.BlockIdx) {
			best = ne // first awaited candidate displaces the non-awaited min
			continue
		}
		if ne.Run < best.Run || (ne.Run == best.Run && ne.BlockIdx < best.BlockIdx) {
			best = ne
		}
	}
	return best
}

// Land applies a completed ParRead of picks, NextRead's result: block(i)
// returns the records of picks[i] and the forecast key implanted in it
// (the first key of block BlockIdx+D of its run, MaxKey past the end). It
// checks each block against the FDS prediction, advances the FDS, counts
// re-reads, and either unstalls the run that awaits the block (Exchange 2
// of Section 5.1) or adds it to F_t.
func (c *Core[R]) Land(picks []forecast.Entry, block func(i int) ([]R, record.Key)) {
	c.Stats.ReadOps++
	var readRefs, promoted []trace.BlockRef
	for i, e := range picks {
		recs, succKey := block(i)
		if c.mem.Has(e.Run, e.BlockIdx) {
			panic(fmt.Sprintf("sched: re-read of in-memory block run=%d idx=%d", e.Run, e.BlockIdx))
		}
		if got := record.FirstKeyOf(recs); got != e.Key {
			panic(fmt.Sprintf("sched: FDS predicted key %d for run %d block %d, block starts with %d",
				e.Key, e.Run, e.BlockIdx, got))
		}
		c.fds.NoteRead(c.runs[e.Run].Disk(e.BlockIdx), e.Run, e.BlockIdx, succKey)
		if c.flushed[[2]int{e.Run, e.BlockIdx}] {
			c.Stats.BlocksReread++
		}
		if c.sink != nil {
			readRefs = append(readRefs, c.ref(e.Run, e.BlockIdx, e.Key))
		}
		if c.stalled[e.Run] && c.need[e.Run] == e.BlockIdx {
			c.stalled[e.Run] = false
			c.stallHeap.Remove(e.Run)
			c.acquire(e.Run, e.BlockIdx, recs)
			if c.sink != nil {
				promoted = append(promoted, c.ref(e.Run, e.BlockIdx, e.Key))
			}
			continue
		}
		c.mem.Insert(&membuf.Block[R]{Run: e.Run, Idx: e.BlockIdx, Records: recs, SuccKey: succKey})
	}
	c.Stats.MaxPrefetched = c.mem.MaxOccupied
	c.emit(trace.EventParRead, 0, readRefs...)
	for _, p := range promoted {
		c.emit(trace.EventPromote, 0, p)
	}
}

// Deplete is the block event: the caller has consumed run h's leading
// block, whose last key is lastKey. It frees the block's M_L slot and
// exhausts the run, promotes its successor from M_R (Exchange 1 of
// Section 5.1), or stalls the run until a ParRead delivers the successor.
func (c *Core[R]) Deplete(h int, lastKey record.Key) {
	c.mem.LeadingReleased()
	next := c.leadIdx[h] + 1
	c.note(trace.EventDeplete, h, next-1, lastKey)
	switch {
	case next >= c.runs[h].NumBlocks():
		c.exhausted++
	case c.mem.Has(h, next):
		b := c.mem.Take(h, next)
		c.acquire(h, next, b.Records)
		c.note(trace.EventPromote, h, next, b.FirstKey())
	default:
		// The successor is still on disk. Its first key is what the FDS
		// tracks for this (disk, run) pair: every earlier block of the
		// run on that disk has been consumed already.
		e, ok := c.fds.Peek(c.runs[h].Disk(next), h)
		if !ok || e.BlockIdx != next {
			panic(fmt.Sprintf("sched: stalled run %d needs block %d but FDS tracks %+v (ok=%v)",
				h, next, e, ok))
		}
		c.stalled[h] = true
		c.need[h] = next
		c.stallHeap.Push(h, uint64(e.Key))
		c.note(trace.EventStall, h, next, e.Key)
	}
}

// NoProgress handles a loop iteration of the caller that neither read nor
// consumed. A fixed-size merge cannot get there (Lemma 1), so it panics.
// A varlen consumer can: it waits whenever the stall minimum prefix-ties
// the active minimum (the awaited record could truly precede it), so
// "landing zone full, nothing consumable" is reachable. The liveness valve
// forceRoom then virtually flushes the surplus over R+D (the
// farthest-future prefetched blocks; no I/O, possible re-reads later) so
// the next pump can read the awaited block.
func (c *Core[R]) NoProgress() {
	if extra := c.mem.Occupied() - (c.r + c.d); c.Varlen && c.fds.Len() > 0 && extra > 0 {
		c.flush(extra, 0)
		return
	}
	panic(fmt.Sprintf("sched: schedule deadlock (Lemma 1 violated): |F|=%d R=%d D=%d leading=%d stalled=%d fds=%d",
		c.mem.Occupied(), c.r, c.d, c.mem.Leading(), c.stallHeap.Len(), c.fds.Len()))
}
