// Package runio implements the paper's disk layout for sorted runs
// (Section 3) and the forecasting format (Section 4).
//
// A run is striped cyclically over the D disks: if block 0 lives on disk
// d_r, block i lives on disk (d_r + i) mod D. Consecutive blocks therefore
// occupy distinct disks, and any D consecutive blocks form one stripe that
// is written with a single, perfectly parallel I/O operation — this is how
// SRM obtains its optimal write behaviour, and why output runs can feed the
// next merge pass with no transposition.
//
// Every block carries implanted forecasting keys: block 0 announces the
// first keys of blocks 1..D, and block i>0 announces the first key of block
// i+D — exactly the information the forecasting data structure needs to
// always know the smallest not-in-memory block of the run on every disk.
// (The paper's text says block 0 carries k_{r,0..D-1}; we shift by one so
// k_{r,D} — the key of block 0's same-disk successor — is announced too,
// which the FDS invariant requires. See DESIGN.md.)
package runio

import (
	"fmt"
	"math/rand"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// Run describes one sorted run resident on the parallel disk system.
type Run struct {
	// ID is the caller-assigned run identifier (unique within a merge).
	ID int
	// StartDisk is d_r, the disk holding block 0.
	StartDisk int
	// Records is the total number of records in the run.
	Records int
	// D is the number of disks the run is striped over.
	D int
	// indexes[i] is the on-disk block index of block i.
	indexes []int32
}

// NumBlocks returns the number of blocks in the run.
func (r *Run) NumBlocks() int { return len(r.indexes) }

// Disk returns the disk holding block i.
func (r *Run) Disk(i int) int { return (r.StartDisk + i) % r.D }

// Addr returns the disk address of block i.
func (r *Run) Addr(i int) pdisk.BlockAddr {
	if i < 0 || i >= len(r.indexes) {
		panic(fmt.Sprintf("runio: block %d of run %d with %d blocks", i, r.ID, len(r.indexes)))
	}
	return pdisk.BlockAddr{Disk: r.Disk(i), Index: int(r.indexes[i])}
}

// Placement chooses the starting disk d_r of each run.
type Placement interface {
	// StartDisk returns the disk for the seq-th run created (seq counts
	// from 0 across the whole sort, so staggering continues across merge
	// passes).
	StartDisk(seq int) int
}

// RandomPlacement draws each starting disk independently and uniformly —
// SRM's only use of randomness (Section 3).
type RandomPlacement struct {
	D   int
	Rng *rand.Rand
}

// StartDisk implements Placement.
func (p *RandomPlacement) StartDisk(int) int { return p.Rng.Intn(p.D) }

// StaggeredPlacement is the deterministic variant of Section 8: run r
// starts on disk r mod D, so consecutive runs begin staggered across the
// disks.
type StaggeredPlacement struct {
	D int
}

// StartDisk implements Placement.
func (p StaggeredPlacement) StartDisk(seq int) int { return seq % p.D }

// FixedPlacement starts every run on the same disk. At disk 0 it is disk
// striping's layout: block i of every run on disk i mod D, so stripe s of
// every run is the same D block positions (DSM). Under SRM's merge it is
// the adversarial layout the paper warns about ("the R leading blocks ...
// may always lie on the same disk"), which tests and the worst-case demos
// use.
type FixedPlacement struct {
	Disk int
}

// StartDisk implements Placement.
func (p FixedPlacement) StartDisk(int) int { return p.Disk }

// Writer streams one sorted run to disk in the striped, forecast-formatted
// layout. It buffers at most 2D blocks (the paper's M_W output buffer): a
// block can be emitted only once the first key of its same-disk successor
// (block i+D) is known, and blocks are emitted in full stripes of D for
// perfect write parallelism.
type Writer[R record.KernelRecord] struct {
	sys       *pdisk.System
	run       *Run
	lastKey   record.Key   // the run's last key so far; the zero Key precedes every key
	cur       []R          // records of the block being formed; capacity B
	pending   [][]R        // formed, not yet written blocks
	pendBase  int          // run-block number of pending[0]
	firstKeys []record.Key // first key of every formed block (indexed by block number)
	fcArena   []record.Key // carved into the 1-key forecasts of blocks past the first
	finished  bool
	writeOps  int64

	// Write-behind state (async mode): the stripe currently in flight.
	// The paper sizes M_W at 2D blocks precisely so one stripe can flush
	// while the merge fills the other; one in-flight stripe is that
	// double buffer.
	async    bool
	inflight *pdisk.WriteFuture
}

// NewWriter starts a new run with the given id on startDisk.
func NewWriter[R record.KernelRecord](sys *pdisk.System, id, startDisk int) *Writer[R] {
	if startDisk < 0 || startDisk >= sys.D() {
		panic(fmt.Sprintf("runio: start disk %d of %d", startDisk, sys.D()))
	}
	return &Writer[R]{
		sys: sys,
		run: &Run{ID: id, StartDisk: startDisk, D: sys.D()},
	}
}

// NewWriterAsync is NewWriter with write-behind: each full stripe is
// issued asynchronously and only awaited when the next stripe is ready
// (or at Finish), so the producing merge overlaps output I/O with
// computation. Emitted stripes, operation counts and the resulting run
// are identical to the synchronous writer's.
func NewWriterAsync[R record.KernelRecord](sys *pdisk.System, id, startDisk int) *Writer[R] {
	w := NewWriter[R](sys, id, startDisk)
	w.async = true
	return w
}

// Room lends the free tail of the block being formed, never empty: the
// caller writes the run's next records into its head and hands them over
// with Commit. It is the caller's to fill until then. Each block is
// formed in an array from the store's pool (pdisk.NewBlock): usually one
// whose block a merge has just drained and freed.
func (w *Writer[R]) Room() []R {
	if w.cur == nil {
		w.cur = pdisk.NewBlock[R](w.sys.B())
	}
	return w.cur[len(w.cur):cap(w.cur)]
}

// Commit appends the first n records of the room Room lent to the run.
// Records must arrive in nondecreasing key order; a violation is a caller
// bug and panics, checked at every record. A block the commit fills is
// cut, and drain writes each stripe once its forecasts are known.
func (w *Writer[R]) Commit(n int) error {
	if w.finished {
		panic("runio: Commit after Finish")
	}
	if n == 0 {
		return nil
	}
	at := len(w.cur)
	rs := w.cur[at : at+n]
	if i := record.Descent(w.lastKey, rs); i >= 0 {
		prev := w.lastKey
		if i > 0 {
			prev = rs[i-1].K()
		}
		panic(fmt.Sprintf("runio: run %d records out of order (%d after %d)",
			w.run.ID, rs[i].K(), prev))
	}
	w.lastKey = rs[n-1].K()
	if at == 0 {
		w.firstKeys = append(w.firstKeys, rs[0].K())
	}
	w.cur = w.cur[:at+n]
	w.run.Records += n
	if len(w.cur) < cap(w.cur) {
		return nil
	}
	w.pending = append(w.pending, w.cur)
	w.cur = nil
	return w.drain(false)
}

// AppendBlock appends a sorted span of records — the Cores > 1 merge's
// super-span, or a whole run at WriteRun — through Room and Commit, so
// its records are order-checked and its blocks cut as theirs are.
func (w *Writer[R]) AppendBlock(rs []R) error {
	for len(rs) > 0 {
		n := copy(w.Room(), rs)
		if err := w.Commit(n); err != nil {
			return err
		}
		rs = rs[n:]
	}
	return nil
}

// Finish flushes all buffered blocks (padding forecasts with MaxKey where no
// successor exists) and returns the completed run descriptor.
func (w *Writer[R]) Finish() (*Run, error) {
	if w.finished {
		panic("runio: double Finish")
	}
	w.finished = true
	if len(w.cur) > 0 {
		w.pending = append(w.pending, w.cur)
		w.cur = nil
	}
	if err := w.drain(true); err != nil {
		return nil, err
	}
	if err := w.awaitInflight(); err != nil {
		return nil, err
	}
	return w.run, nil
}

// awaitInflight completes the write-behind stripe, if any.
func (w *Writer[R]) awaitInflight() error {
	if w.inflight == nil {
		return nil
	}
	fut := w.inflight
	w.inflight = nil
	return fut.Wait()
}

// forecastFor builds the implanted keys of run block i. It may only be
// called when the necessary successor first keys are known (or the run is
// finished, in which case missing successors forecast MaxKey).
func (w *Writer[R]) forecastFor(i int) []record.Key {
	d := w.sys.D()
	key := func(j int) record.Key {
		if j < len(w.firstKeys) {
			return w.firstKeys[j]
		}
		return record.MaxKey
	}
	if i == 0 {
		fc := make([]record.Key, d)
		for j := 1; j <= d; j++ {
			fc[j-1] = key(j)
		}
		return fc
	}
	// Every block past the first forecasts exactly one key. Carve those
	// out of an arena chunk instead of allocating one-element slices: each
	// forecast is a capacity-1 sub-slice written once here and then handed
	// to the System with its block (writes keep what they are given), so
	// no key is ever rewritten under the store and no append can reach a
	// neighbour.
	if len(w.fcArena) == 0 {
		w.fcArena = make([]record.Key, 512)
	}
	fc := w.fcArena[0:1:1]
	w.fcArena = w.fcArena[1:]
	fc[0] = key(i + d)
	return fc
}

// drain writes out every pending block whose forecast is determined, in
// stripes of D. Unless final is set, it keeps blocks whose successor block
// i+D has not been formed yet.
func (w *Writer[R]) drain(final bool) error {
	d := w.sys.D()
	for {
		// Number of leading pending blocks that are emittable.
		ready := 0
		for ready < len(w.pending) {
			blockNum := w.pendBase + ready
			if !final && blockNum+d >= len(w.firstKeys) {
				break // successor's first key not yet known
			}
			ready++
		}
		if ready == 0 {
			return nil
		}
		if ready < d && !final {
			return nil // wait for a full stripe
		}
		stripe := ready
		if stripe > d {
			stripe = d
		}
		writes := make([]pdisk.BlockWrite, stripe)
		for j := 0; j < stripe; j++ {
			blockNum := w.pendBase + j
			disk := w.run.Disk(blockNum)
			addr := w.sys.Alloc(disk)
			writes[j] = pdisk.BlockWrite{
				Addr:  addr,
				Block: pdisk.MakeStored(w.pending[j], w.forecastFor(blockNum)),
			}
			w.run.indexes = append(w.run.indexes, int32(addr.Index))
		}
		if w.async {
			// Wait for the previous stripe (the other half of M_W) before
			// issuing this one: at most one stripe is ever in flight.
			if err := w.awaitInflight(); err != nil {
				return err
			}
			w.inflight = w.sys.WriteBlocksAsync(writes)
		} else if err := w.sys.WriteBlocks(writes); err != nil {
			return err
		}
		w.writeOps++
		w.pending = w.pending[stripe:]
		w.pendBase += stripe
		if !final && len(w.pending) < d {
			return nil
		}
		if final && len(w.pending) == 0 {
			return nil
		}
	}
}

// WriteOps returns the number of parallel write operations this writer has
// performed — exact even when several writers share one System
// concurrently, unlike a System-level stats delta.
func (w *Writer[R]) WriteOps() int64 { return w.writeOps }

// WriteRun stores an entire in-memory sorted run and returns its descriptor
// — a convenience for tests and run-formation code that already has the
// records materialised.
func WriteRun[R record.KernelRecord](sys *pdisk.System, id, startDisk int, records []R) (*Run, error) {
	w := NewWriter[R](sys, id, startDisk)
	if err := w.AppendBlock(records); err != nil {
		return nil, err
	}
	return w.Finish()
}

// ReadAll reads a run back sequentially, one stripe per I/O operation,
// and returns its records — a verification helper, not a merge path.
func ReadAll[R record.KernelRecord](sys *pdisk.System, run *Run) ([]R, error) {
	out := make([]R, 0, run.Records)
	err := StreamBlocks(sys, run, false, func(blk []R) error {
		out = append(out, blk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StripeReader reads a run's stripes in order, one parallel read
// operation each: stripe s is blocks sD to sD+D−1, which sit on distinct
// disks because consecutive blocks of a run do. It is the one sequential
// reader of runs, sync and async: with async set its read-ahead is one —
// the next stripe is in flight while the caller consumes the current one,
// hiding device latency behind the caller's processing at an unchanged
// operation count — and without it zero.
type StripeReader struct {
	sys     *pdisk.System
	run     *Run
	addrs   []pdisk.BlockAddr // the stripe being issued; a read copies them
	n, next int
	async   bool
	ahead   *pdisk.ReadFuture
}

// NewStripeReader returns a reader of run's stripes.
func NewStripeReader(sys *pdisk.System, run *Run, async bool) *StripeReader {
	n := (run.NumBlocks() + run.D - 1) / run.D
	return &StripeReader{sys: sys, run: run, addrs: make([]pdisk.BlockAddr, 0, run.D), n: n, async: async}
}

// stripe returns the addresses of stripe s.
func (r *StripeReader) stripe(s int) []pdisk.BlockAddr {
	r.addrs = r.addrs[:0]
	for i := s * r.run.D; i < min((s+1)*r.run.D, r.run.NumBlocks()); i++ {
		r.addrs = append(r.addrs, r.run.Addr(i))
	}
	return r.addrs
}

// Left returns the number of stripes not yet read.
func (r *StripeReader) Left() int { return r.n - r.next }

// Read returns the blocks of the next stripe in run order. With
// read-ahead it issues the read of the stripe after before it returns.
func (r *StripeReader) Read() ([]pdisk.StoredBlock, error) {
	s := r.next
	r.next++
	if !r.async {
		return r.sys.ReadBlocks(r.stripe(s))
	}
	fut := r.ahead
	if fut == nil {
		fut = r.sys.ReadBlocksAsync(r.stripe(s))
	}
	r.ahead = nil
	blks, err := fut.Wait()
	if err == nil && r.next < r.n {
		r.ahead = r.sys.ReadBlocksAsync(r.stripe(r.next))
	}
	return blks, err
}

// Close waits for the read-ahead, if one is in flight: every code path
// that issues a read waits for it, so none outlives the reader.
func (r *StripeReader) Close() {
	if r.ahead != nil {
		r.ahead.Wait()
		r.ahead = nil
	}
}

// StreamBlocks reads a run back sequentially, one stripe of up to D
// blocks per I/O operation, invoking fn on each block's records in order,
// without materialising the run — the out-of-core counterpart of ReadAll.
// Each slice is the stored block's own records: fn must neither modify
// nor keep it. With async set, stripe i+1 is in flight while fn consumes
// stripe i; the operation count is the same.
func StreamBlocks[R record.KernelRecord](sys *pdisk.System, run *Run, async bool, fn func([]R) error) error {
	rd := NewStripeReader(sys, run, async)
	defer rd.Close()
	for rd.Left() > 0 {
		blks, err := rd.Read()
		if err != nil {
			return err
		}
		for _, b := range blks {
			if err := fn(pdisk.RecsOf[R](b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stream is StreamBlocks without read-ahead, invoking fn on every record.
func Stream[R record.KernelRecord](sys *pdisk.System, run *Run, fn func(R) error) error {
	return StreamBlocks(sys, run, false, eachRecord(fn))
}

// StreamAsync is StreamBlocks with read-ahead, invoking fn on every
// record.
func StreamAsync[R record.KernelRecord](sys *pdisk.System, run *Run, fn func(R) error) error {
	return StreamBlocks(sys, run, true, eachRecord(fn))
}

// eachRecord adapts a per-record callback to StreamBlocks' block
// callbacks.
func eachRecord[R record.KernelRecord](fn func(R) error) func([]R) error {
	return func(blk []R) error {
		for _, r := range blk {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// Free releases every block of the run in one free batch (no I/O is
// counted; reclamation is bookkeeping).
func Free(sys *pdisk.System, run *Run) error {
	return sys.FreeBlocks(run.Addrs()...)
}

// FreeBatch is the number of drained blocks a Freer gathers before it
// frees them in one System free. A free per block would cost a System
// operation per block a merge reads; a batch of FreeBatch keeps the
// frees' share of a merge in the noise and holds at most FreeBatch-1
// drained blocks per merge in the store.
const FreeBatch = 64

// Freer frees a merge's input blocks as the merge drains them, so a pass
// holds its data once, not its inputs and its outputs both. A merge calls
// Drained with each input block's address once no record of the block is
// left to merge; its caller calls Flush when the merge is done. A nil
// Freer keeps every block: the pass loop hands its merges nil when a
// checkpoint hook frees the pass's inputs after saving the manifest that
// supersedes them.
type Freer struct {
	sys   *pdisk.System
	batch []pdisk.BlockAddr
}

// NewFreer returns a Freer of sys's blocks.
func NewFreer(sys *pdisk.System) *Freer {
	return &Freer{sys: sys, batch: make([]pdisk.BlockAddr, 0, FreeBatch)}
}

// Drained notes that the merge is done with the block at addr, and frees
// the batch once it holds FreeBatch addresses.
func (f *Freer) Drained(addr pdisk.BlockAddr) error {
	if f == nil {
		return nil
	}
	if f.batch = append(f.batch, addr); len(f.batch) < FreeBatch {
		return nil
	}
	return f.Flush()
}

// Flush frees the blocks noted since the last free.
func (f *Freer) Flush() error {
	if f == nil || len(f.batch) == 0 {
		return nil
	}
	err := f.sys.FreeBlocks(f.batch...)
	f.batch = f.batch[:0]
	return err
}

// Addrs returns the addresses of the run's blocks in order.
func (r *Run) Addrs() []pdisk.BlockAddr {
	out := make([]pdisk.BlockAddr, r.NumBlocks())
	for i := range out {
		out[i] = r.Addr(i)
	}
	return out
}

// RunState is the serialisable form of a Run: the same descriptor with
// the block-index table exported, so a checkpoint manifest can persist
// surviving runs and a resumed sort can reconstruct them over a reopened
// store.
type RunState struct {
	ID        int
	StartDisk int
	Records   int
	D         int
	Indexes   []int32
}

// State exports the run's descriptor for a checkpoint manifest.
func (r *Run) State() RunState {
	return RunState{
		ID:        r.ID,
		StartDisk: r.StartDisk,
		Records:   r.Records,
		D:         r.D,
		Indexes:   append([]int32(nil), r.indexes...),
	}
}

// RunFromState reconstructs a run from its manifest descriptor.
func RunFromState(st RunState) *Run {
	return &Run{
		ID:        st.ID,
		StartDisk: st.StartDisk,
		Records:   st.Records,
		D:         st.D,
		indexes:   append([]int32(nil), st.Indexes...),
	}
}

// CountingPlacement wraps a Placement and counts StartDisk draws. A
// checkpoint manifest records the count; a resumed sort replays that many
// draws from a fresh seeded RandomPlacement before continuing, so the
// starting disks of post-resume runs are exactly the ones the
// uninterrupted sort would have drawn.
type CountingPlacement struct {
	Inner Placement
	n     int64
}

// StartDisk implements Placement.
func (p *CountingPlacement) StartDisk(seq int) int {
	p.n++
	return p.Inner.StartDisk(seq)
}

// Draws returns the number of StartDisk calls so far.
func (p *CountingPlacement) Draws() int64 { return p.n }
