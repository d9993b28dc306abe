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
	buf     []R
	lastKey record.Key
	started bool

	// Write-behind state (async mode): at most one logical block is in
	// flight, the striped analogue of SRM's M_W double buffer.
	async    bool
	inflight *pdisk.WriteFuture
}

// NewWriter starts a new striped run with the given id.
func NewWriter[R record.KernelRecord](sys *pdisk.System, id int) *Writer[R] {
	return &Writer[R]{sys: sys, run: &Run{ID: id}}
}

// Append adds the next record; records must arrive in nondecreasing key
// order.
func (w *Writer[R]) Append(r R) error {
	k := r.K()
	if w.started && k < w.lastKey {
		panic(fmt.Sprintf("dsm: run %d records out of order", w.run.ID))
	}
	w.started = true
	w.lastKey = k
	w.buf = append(w.buf, r)
	w.run.Records++
	if len(w.buf) == w.sys.D()*w.sys.B() {
		return w.flush()
	}
	return nil
}

// AppendBlock bulk-appends a sorted span of records — one galloped merge
// emission — copying it into the logical-block buffer in one pass instead
// of one Append call per record. The ordering panic survives as a
// span-boundary check; spans are slices of sorted stripes, so internal
// order is the caller's invariant.
func (w *Writer[R]) AppendBlock(rs []R) error {
	if len(rs) == 0 {
		return nil
	}
	if w.started && rs[0].K() < w.lastKey {
		panic(fmt.Sprintf("dsm: run %d records out of order", w.run.ID))
	}
	w.started = true
	w.lastKey = rs[len(rs)-1].K()
	logical := w.sys.D() * w.sys.B()
	for len(rs) > 0 {
		n := logical - len(w.buf)
		if n > len(rs) {
			n = len(rs)
		}
		w.buf = append(w.buf, rs[:n]...)
		w.run.Records += n
		rs = rs[n:]
		if len(w.buf) == logical {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes one logical block (up to D*B records) in a single parallel
// I/O operation.
func (w *Writer[R]) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	b := w.sys.B()
	var writes []pdisk.BlockWrite
	var addrs []pdisk.BlockAddr
	for disk := 0; len(w.buf) > 0 && disk < w.sys.D(); disk++ {
		n := b
		if n > len(w.buf) {
			n = len(w.buf)
		}
		blk := make([]R, n)
		copy(blk, w.buf[:n])
		w.buf = w.buf[n:]
		addr := w.sys.Alloc(disk)
		writes = append(writes, pdisk.BlockWrite{Addr: addr, Block: pdisk.MakeStored(blk, nil)})
		addrs = append(addrs, addr)
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

	bufs := make([][]R, len(runs))
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
	refill := func(i int) error {
		for len(bufs[i]) == 0 && readers[i].Left() > 0 {
			recs, err := readRecs[R](readers[i])
			if err != nil {
				return err
			}
			bufs[i] = recs
		}
		return nil
	}
	// Internal merging uses the classical tournament tree of losers
	// ([Knu73], the paper's reference for internal merge processing).
	keys := make([]uint64, len(runs))
	varlen := false
	for i := range runs {
		if err := refill(i); err != nil {
			return nil, stats, err
		}
		if len(bufs[i]) > 0 {
			keys[i] = uint64(bufs[i][0].K())
			if bufs[i][0].X() != "" {
				varlen = true
			}
		} else {
			keys[i] = ltree.Infinite
		}
	}
	var lt *ltree.Tree
	if varlen {
		// Variable-length records: prefix-word ties are adjudicated by the
		// tied runs' current head records. The comparator must be live
		// before the first tournament is played (ltree.New would seed a
		// prefix-tied pair by index), so build retired and push.
		lt = ltree.NewRetired(len(runs))
		lt.SetTie(func(a, b int) int {
			return record.CompareExt(bufs[a][0].X(), bufs[b][0].X())
		})
		for i := range runs {
			if len(bufs[i]) > 0 {
				lt.Push(i, keys[i])
			}
		}
	} else {
		lt = ltree.New(keys)
	}
	w := NewWriter[R](sys, outID)
	w.async = async
	for lt.Len() > 0 {
		i, _ := lt.Min()
		// Galloped emission: run i keeps winning while its key is below the
		// runner-up's (or equal with the lower run index), and the
		// runner-up's key cannot change while i wins — so the whole span is
		// located by binary search and emitted in one bulk call. Varlen
		// bounds are exclusive (prefix equality needs content adjudication);
		// a zero span still emits the one record the tree adjudicated.
		span := len(bufs[i])
		if ch, chKey, ok := lt.Challenger(); ok {
			incl := i < ch
			if varlen {
				incl = false
			}
			if n := record.CountBelow(bufs[i], record.Key(chKey), incl); n < span {
				span = n
			}
			if varlen && span == 0 {
				span = 1
			}
		}
		if err := w.AppendBlock(bufs[i][:span]); err != nil {
			return nil, stats, err
		}
		bufs[i] = bufs[i][span:]
		if len(bufs[i]) == 0 {
			if err := refill(i); err != nil {
				return nil, stats, err
			}
		}
		if len(bufs[i]) == 0 {
			lt.DeleteMin()
		} else {
			lt.ReplaceMin(uint64(bufs[i][0].K()))
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
	for {
		chunk, err := rd.Read(load)
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			return runs, nil
		}
		sorted := make([]R, len(chunk))
		copy(sorted, chunk)
		pmerge.Sort(sorted, cores)
		w := NewWriter[R](sys, len(runs))
		w.async = async
		if err := w.AppendBlock(sorted); err != nil {
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
