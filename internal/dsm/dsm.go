// Package dsm implements disk-striped mergesort, the baseline SRM is
// compared against throughout the paper (Sections 1 and 9).
//
// DSM coordinates the D disks so that every I/O operation accesses the same
// block index on each disk — logically one disk with block size D*B. Runs
// are laid out in logical blocks (stripes); a merge reads one logical block
// per I/O operation and writes the output the same way. Striping gives
// perfect parallelism for free, but with the paper's memory budget
// M = (2k+4)DB + kD^2 it can merge only
//
//	R_DSM = (M/B − 2D) / 2D = k + 1 + kD/2B
//
// runs at a time (2 logical blocks of read buffer per run, double-buffered,
// plus 2 logical blocks of write buffer), against SRM's R = kD. The extra
// passes are DSM's entire disadvantage: per pass it performs the minimal
// N/DB reads and N/DB writes.
//
// Internal merging runs the merge kernel every merger shares
// (ltree.Kernel), filling the output writer's logical block in place; DSM
// adds only the refill of a run's logical block when the kernel reports
// its end.
package dsm

import (
	"fmt"

	"srmsort/internal/ltree"
	"srmsort/internal/pdisk"
	"srmsort/internal/pmerge"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
)

// MergeOrder returns R_DSM, the number of runs DSM merges at a time with
// memBlocks = M/B internal memory blocks on d disks: (M/B − 2D)/2D.
func MergeOrder(memBlocks, d int) int {
	return (memBlocks - 2*d) / (2 * d)
}

// Run is a sorted run stored in logical (striped) blocks.
type Run struct {
	ID      int
	Records int
	// stripes[s] holds the D per-disk block addresses of logical block s
	// (fewer than D in a partial final stripe).
	stripes [][]pdisk.BlockAddr
}

// NumStripes returns the number of logical blocks of the run.
func (r *Run) NumStripes() int { return len(r.stripes) }

// RunState is the serialisable form of a Run for checkpoint manifests.
type RunState struct {
	ID      int
	Records int
	Stripes [][]pdisk.BlockAddr
}

// State exports the run's descriptor.
func (r *Run) State() RunState {
	stripes := make([][]pdisk.BlockAddr, len(r.stripes))
	for i, s := range r.stripes {
		stripes[i] = append([]pdisk.BlockAddr(nil), s...)
	}
	return RunState{ID: r.ID, Records: r.Records, Stripes: stripes}
}

// RunFromState reconstructs a run from its manifest descriptor.
func RunFromState(st RunState) *Run {
	stripes := make([][]pdisk.BlockAddr, len(st.Stripes))
	for i, s := range st.Stripes {
		stripes[i] = append([]pdisk.BlockAddr(nil), s...)
	}
	return &Run{ID: st.ID, Records: st.Records, stripes: stripes}
}

// Addrs returns every block address of the run, stripe by stripe — what
// checkpoint verification and orphan reclamation walk.
func (r *Run) Addrs() []pdisk.BlockAddr {
	var out []pdisk.BlockAddr
	for _, s := range r.stripes {
		out = append(out, s...)
	}
	return out
}

// Writer streams a sorted run to disk in logical blocks.
type Writer[R record.KernelRecord] struct {
	sys     *pdisk.System
	run     *Run
	buf     []R        // the logical block being formed, capacity D*B; nil until Room
	lastKey record.Key // the run's last key so far; the zero Key precedes every key

	// Write-behind state (async mode): at most one logical block is in
	// flight, the striped analogue of SRM's M_W double buffer.
	async    bool
	inflight *pdisk.WriteFuture
}

// NewWriter starts a new striped run with the given id.
func NewWriter[R record.KernelRecord](sys *pdisk.System, id int) *Writer[R] {
	return &Writer[R]{sys: sys, run: &Run{ID: id}}
}

// Room lends the free tail of the logical block being formed, never
// empty: the caller writes the run's next records into its head and
// hands them over with Commit. It is the caller's to fill until then.
func (w *Writer[R]) Room() []R {
	if w.buf == nil {
		w.buf = make([]R, 0, w.sys.D()*w.sys.B())
	}
	return w.buf[len(w.buf):cap(w.buf)]
}

// Commit appends the first n records of the room Room lent to the run.
// Records must arrive in nondecreasing key order; a violation is a caller
// bug and panics, checked at every record. A logical block the commit
// fills is written at once.
func (w *Writer[R]) Commit(n int) error {
	if n == 0 {
		return nil
	}
	at := len(w.buf)
	rs := w.buf[at : at+n]
	if i := record.Descent(w.lastKey, rs); i >= 0 {
		prev := w.lastKey
		if i > 0 {
			prev = rs[i-1].K()
		}
		panic(fmt.Sprintf("dsm: run %d records out of order (%d after %d)", w.run.ID, rs[i].K(), prev))
	}
	w.lastKey = rs[n-1].K()
	w.buf = w.buf[:at+n]
	w.run.Records += n
	if len(w.buf) < cap(w.buf) {
		return nil
	}
	return w.flush()
}

// AppendBlock appends a sorted load at run formation through Room and
// Commit: one copy into the logical blocks the writer hands over.
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

// flush writes the logical block being formed, if any, in a single
// parallel I/O operation. Each disk's share of it goes to the System as
// it is (the write takes ownership), and the next block forms in a fresh
// buffer.
func (w *Writer[R]) flush() error {
	rs := w.buf
	if len(rs) == 0 {
		return nil
	}
	w.buf = nil
	var writes []pdisk.BlockWrite
	var addrs []pdisk.BlockAddr
	for disk := 0; len(rs) > 0 && disk < w.sys.D(); disk++ {
		n := min(w.sys.B(), len(rs))
		addr := w.sys.Alloc(disk)
		writes = append(writes, pdisk.BlockWrite{Addr: addr, Block: pdisk.MakeStored(rs[:n:n], nil)})
		addrs = append(addrs, addr)
		rs = rs[n:]
	}
	if w.async {
		if err := w.awaitInflight(); err != nil {
			return err
		}
		w.inflight = w.sys.WriteBlocksAsync(writes)
	} else if err := w.sys.WriteBlocks(writes); err != nil {
		return err
	}
	w.run.stripes = append(w.run.stripes, addrs)
	return nil
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

// Finish flushes the final partial logical block and returns the run.
func (w *Writer[R]) Finish() (*Run, error) {
	if err := w.flush(); err != nil {
		return nil, err
	}
	if err := w.awaitInflight(); err != nil {
		return nil, err
	}
	return w.run, nil
}

// reader returns a stripe reader over the run's logical blocks.
func (r *Run) reader(sys *pdisk.System, async bool) *runio.StripeReader {
	return runio.NewStripeReader(sys, len(r.stripes), func(s int) []pdisk.BlockAddr { return r.stripes[s] }, async)
}

// readRecs reads the reader's next logical block as one slice of records.
func readRecs[R record.KernelRecord](rd *runio.StripeReader) ([]R, error) {
	blocks, err := rd.Read()
	if err != nil {
		return nil, err
	}
	var out []R
	for _, b := range blocks {
		out = append(out, pdisk.RecsOf[R](b)...)
	}
	return out, nil
}

// MergeStats reports the I/O cost of one DSM merge.
type MergeStats struct {
	ReadOps  int64
	WriteOps int64
}

// mergeRuns merges the given runs into one, reading one logical block per
// I/O operation exactly when a run's buffer drains (the classical k-way
// merge with striped disks), so the number of read operations is precisely
// the total number of logical input blocks. async prefetches each run's
// next logical block while the current one is consumed (the double
// buffering DSM's memory budget of 2 logical blocks per run provides for)
// and writes output stripes behind the merge; every stripe is still read
// and written exactly once, so statistics and output do not change.
func mergeRuns[R record.KernelRecord](sys *pdisk.System, runs []*Run, outID int, async bool) (*Run, MergeStats, error) {
	if len(runs) == 0 {
		return nil, MergeStats{}, fmt.Errorf("dsm: merge of zero runs")
	}
	var stats MergeStats
	readsBefore := sys.Stats().ReadOps
	writesBefore := sys.Stats().WriteOps

	readers := make([]*runio.StripeReader, len(runs))
	for i, r := range runs {
		readers[i] = r.reader(sys, async)
	}
	// On any return, no read may be left in flight: an unwaited future
	// is an unaccounted operation.
	defer func() {
		for _, rd := range readers {
			rd.Close()
		}
	}()
	// Internal merging uses the classical tournament tree of losers
	// ([Knu73], the paper's reference for internal merge processing),
	// over each run's current logical block.
	k := ltree.NewKernel[R](len(runs), false)
	// refill pushes run i's next logical block, if any.
	refill := func(i int) error {
		if readers[i].Left() == 0 {
			return nil
		}
		recs, err := readRecs[R](readers[i])
		if err == nil {
			k.Push(i, recs)
		}
		return err
	}
	for i := range runs {
		if err := refill(i); err != nil {
			return nil, stats, err
		}
	}
	w := NewWriter[R](sys, outID)
	w.async = async
	for {
		room := w.Room()
		n, i, ended := k.Fill(room)
		if err := w.Commit(n); err != nil {
			return nil, stats, err
		}
		if ended {
			if err := refill(i); err != nil {
				return nil, stats, err
			}
		} else if n < len(room) {
			break
		}
	}
	out, err := w.Finish()
	if err != nil {
		return nil, stats, err
	}
	stats.ReadOps = sys.Stats().ReadOps - readsBefore
	stats.WriteOps = sys.Stats().WriteOps - writesBefore
	return out, stats, nil
}

// Free releases every block of the run in one free batch.
func Free(sys *pdisk.System, r *Run) error {
	return sys.FreeBlocks(r.Addrs()...)
}

// SortStats aggregates the merge passes of MergeAll.
type SortStats struct {
	MergePasses   int
	Merges        int
	MergeReadOps  int64
	MergeWriteOps int64
}

// FormRunsCores performs DSM's run-formation pass: the striped input is
// read with full parallelism, sorted one load at a time across up to cores
// goroutines (pmerge.Sort), and each load is written out as a run in
// logical blocks — behind the next load's sort when async is set. Sorted
// loads are byte-identical for every core count, so the emitted stripes
// and operation counts depend on neither cores nor async.
func FormRunsCores[R record.KernelRecord](sys *pdisk.System, file *runform.InputFile, load int, async bool, cores int) ([]*Run, error) {
	if load < 1 {
		return nil, fmt.Errorf("dsm: load %d", load)
	}
	rd := runform.NewReader[R](sys, file)
	var runs []*Run
	var scratch []R // radix/merge-back buffer, reused across loads
	for {
		chunk, err := rd.Read(load)
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			return runs, nil
		}
		if len(scratch) < len(chunk) {
			scratch = make([]R, len(chunk))
		}
		// The load is the reader's buffer, ours until the next Read: sort
		// it in place; the writer copies it into the run's blocks.
		pmerge.SortScratch(chunk, scratch, cores)
		w := NewWriter[R](sys, len(runs))
		w.async = async
		if err := w.AppendBlock(chunk); err != nil {
			return nil, err
		}
		run, err := w.Finish()
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
}

// PassFunc is the checkpoint hook of MergeAll: invoked after each
// completed merge pass (1-based within the call) with the surviving runs
// and next sequence number, before the pass's input runs are freed.
type PassFunc func(pass int, survivors []*Run, nextSeq int) error

// MergeAllOpts selects MergeAll's execution mode.
type MergeAllOpts struct {
	// Async prefetches input stripes and writes output stripes behind
	// every merge; statistics and output are unchanged.
	Async bool
	// AfterPass, when non-nil, is the checkpoint hook described at
	// PassFunc.
	AfterPass PassFunc
}

// MergeAll repeatedly merges runs, r at a time, until one remains — the
// merge half of a DSM sort after FormRunsCores, and what a checkpointed
// sort resumes over runs reconstructed from a manifest. When AfterPass is
// installed, each pass's inputs are freed only after the hook returns (so
// a persisted manifest always names live runs); otherwise frees follow
// each merge immediately.
func MergeAll[R record.KernelRecord](sys *pdisk.System, runs []*Run, r, seqStart int, opts MergeAllOpts) (*Run, SortStats, int, error) {
	if r < 2 {
		return nil, SortStats{}, seqStart, fmt.Errorf("dsm: merge order %d, need >= 2", r)
	}
	if len(runs) == 0 {
		return nil, SortStats{}, seqStart, fmt.Errorf("dsm: no runs to merge")
	}
	var stats SortStats
	seq := seqStart
	for len(runs) > 1 {
		stats.MergePasses++
		next := make([]*Run, 0, (len(runs)+r-1)/r)
		var deferred []*Run
		for off := 0; off < len(runs); off += r {
			end := off + r
			if end > len(runs) {
				end = len(runs)
			}
			group := runs[off:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			merged, ms, err := mergeRuns[R](sys, group, seq, opts.Async)
			if err != nil {
				return nil, stats, seq, err
			}
			seq++
			stats.Merges++
			stats.MergeReadOps += ms.ReadOps
			stats.MergeWriteOps += ms.WriteOps
			if opts.AfterPass != nil {
				deferred = append(deferred, group...)
			} else {
				for _, in := range group {
					if err := Free(sys, in); err != nil {
						return nil, stats, seq, err
					}
				}
			}
			next = append(next, merged)
		}
		if opts.AfterPass != nil {
			if err := opts.AfterPass(stats.MergePasses, next, seq); err != nil {
				return nil, stats, seq, err
			}
			for _, in := range deferred {
				if err := Free(sys, in); err != nil {
					return nil, stats, seq, err
				}
			}
		}
		runs = next
	}
	return runs[0], stats, seq, nil
}

// ReadAll reads a DSM run back (one logical block per operation) — a
// verification helper.
func ReadAll[R record.KernelRecord](sys *pdisk.System, r *Run) ([]R, error) {
	var out []R
	err := StreamBlocks(sys, r, false, func(blk []R) error {
		out = append(out, blk...)
		return nil
	})
	return out, err
}

// StreamBlocks reads a DSM run back one logical block (stripe) per
// operation, invoking fn on each physical block's records in order under
// runio.StreamStripes's contract, without materialising the run. With
// async set, logical block s+1 is in flight while fn consumes block s;
// the operation count is the same.
func StreamBlocks[R record.KernelRecord](sys *pdisk.System, r *Run, async bool, fn func([]R) error) error {
	return runio.StreamStripes(r.reader(sys, async), fn)
}
