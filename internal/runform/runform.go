// Package runform implements the initial run-formation pass of external
// mergesort (paper Section 2.1).
//
// The input file lives striped across the D disks and is read with full
// parallelism, one stripe of D blocks per I/O operation. Two strategies
// produce the initial sorted runs:
//
//   - MemoryLoad: sort one load of 'load' records at a time. The paper
//     sorts half-memoryloads (load = M/2) "so as to overlap computation
//     with I/O", giving 2N/M runs of length M/2.
//   - ReplacementSelection: the classical heap-based technique [Knuth 73]
//     that produces about N/M runs of expected length ~2M on random inputs
//     (exactly M-record runs on reverse-sorted inputs).
//
// Either way every run is written in the striped, forecast-formatted layout
// of package runio, starting on the disk its Placement assigns.
package runform

import (
	"fmt"
	"slices"

	"srmsort/internal/iheap"
	"srmsort/internal/pdisk"
	"srmsort/internal/pmerge"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// InputFile is an unsorted file striped block-by-block over the disks:
// block g lives on disk g mod D, so a stripe of D consecutive blocks is
// read in one parallel I/O operation.
type InputFile struct {
	Records int
	addrs   []pdisk.BlockAddr
}

// NumBlocks returns the number of blocks in the file.
func (f *InputFile) NumBlocks() int { return len(f.addrs) }

// Loader streams an unsorted input file onto the disk system block by
// block, buffering at most one stripe (D blocks) — so arbitrarily large
// inputs can be loaded without materialising them in memory. The write
// operations it performs are setup, not sorting cost; callers normally
// ResetStats afterwards (the paper's cost formulas start with the
// run-formation read pass).
type Loader[R record.KernelRecord] struct {
	sys      *pdisk.System
	file     *InputFile
	cur      []R
	writes   []pdisk.BlockWrite
	finished bool
}

// NewLoader returns a Loader writing to sys at the kernel width R (the
// codec seam in srmsort selects the width; fixed16 loads are noscan
// []record.Rec16 stripes end to end).
func NewLoader[R record.KernelRecord](sys *pdisk.System) *Loader[R] {
	return &Loader[R]{sys: sys, file: &InputFile{}}
}

// Append adds one input record.
func (l *Loader[R]) Append(r R) error {
	if l.finished {
		panic("runform: Append after Finish")
	}
	if len(l.cur) == 0 && cap(l.cur) < l.sys.B() {
		l.cur = make([]R, 0, l.sys.B())
	}
	l.cur = append(l.cur, r)
	l.file.Records++
	if len(l.cur) == l.sys.B() {
		return l.cutBlock()
	}
	return nil
}

// AppendBlock adds records in order and takes ownership of rs: the
// caller must not touch it again. A full block (B records) arriving at a
// block boundary becomes the stored block as it is, without a copy —
// the path of a feed that hands over whole blocks; any other span is
// appended record by record.
func (l *Loader[R]) AppendBlock(rs []R) error {
	if len(l.cur) == 0 && len(rs) == l.sys.B() && !l.finished {
		l.cur = rs
		l.file.Records += len(rs)
		return l.cutBlock()
	}
	for _, r := range rs {
		if err := l.Append(r); err != nil {
			return err
		}
	}
	return nil
}

func (l *Loader[R]) cutBlock() error {
	disk := len(l.file.addrs) % l.sys.D()
	addr := l.sys.Alloc(disk)
	l.writes = append(l.writes, pdisk.BlockWrite{
		Addr:  addr,
		Block: pdisk.MakeStored(l.cur, nil),
	})
	l.file.addrs = append(l.file.addrs, addr)
	l.cur = nil
	if len(l.writes) == l.sys.D() {
		return l.flush()
	}
	return nil
}

func (l *Loader[R]) flush() error {
	if len(l.writes) == 0 {
		return nil
	}
	if err := l.sys.WriteBlocks(l.writes); err != nil {
		return err
	}
	// The blocks are the store's now, but the stripe's BlockWrite slice
	// is the loader's own: reuse it for the next stripe.
	l.writes = l.writes[:0]
	return nil
}

// Finish flushes the partial tail and returns the file descriptor.
func (l *Loader[R]) Finish() (*InputFile, error) {
	if l.finished {
		panic("runform: double Finish")
	}
	l.finished = true
	if len(l.cur) > 0 {
		if err := l.cutBlock(); err != nil {
			return nil, err
		}
	}
	if err := l.flush(); err != nil {
		return nil, err
	}
	return l.file, nil
}

// LoadInput writes records onto the disk system as a striped input file —
// the convenience form of Loader for in-memory inputs.
func LoadInput[R record.KernelRecord](sys *pdisk.System, records []R) (*InputFile, error) {
	l := NewLoader[R](sys)
	for _, r := range records {
		if err := l.Append(r); err != nil {
			return nil, err
		}
	}
	return l.Finish()
}

// Reader streams the input file stripe by stripe with full read
// parallelism (one I/O operation per stripe of D blocks). Both SRM and DSM
// run formation consume the input through it.
//
// The reader copies each record once, into one buffer it keeps for the
// whole file: a slice Read returns is the caller's to modify — run
// formation sorts each load in place — until the next Read reuses its
// memory.
type Reader[R record.KernelRecord] struct {
	sys  *pdisk.System
	file *InputFile
	next int // next block index to fetch
	buf  []R // records fetched; buf[head:] not yet returned
	head int
}

// NewReader returns a Reader positioned at the start of the file.
func NewReader[R record.KernelRecord](sys *pdisk.System, file *InputFile) *Reader[R] {
	return &Reader[R]{sys: sys, file: file}
}

// more appends one stripe to the buffer; it reports false at EOF.
func (r *Reader[R]) more() (bool, error) {
	if r.next >= len(r.file.addrs) {
		return false, nil
	}
	end := r.next + r.sys.D()
	if end > len(r.file.addrs) {
		end = len(r.file.addrs)
	}
	blocks, err := r.sys.ReadBlocks(r.file.addrs[r.next:end])
	if err != nil {
		return false, err
	}
	r.next = end
	for _, b := range blocks {
		r.buf = append(r.buf, pdisk.RecsOf[R](b)...)
	}
	return true, nil
}

// Read returns up to n records from the file, fetching stripes as needed.
// It returns an empty slice at EOF. The slice is valid until the next
// Read.
func (r *Reader[R]) Read(n int) ([]R, error) {
	if len(r.buf)-r.head < n {
		// Move the records not yet returned to the front, over the ones
		// returned before: the buffer never needs more than n records and
		// one stripe, so it is sized once and never regrows.
		r.buf = r.buf[:copy(r.buf, r.buf[r.head:])]
		r.head = 0
		if want := min(n, r.file.Records) + r.sys.D()*r.sys.B(); cap(r.buf) < want {
			r.buf = slices.Grow(r.buf, want-len(r.buf))
		}
		for len(r.buf) < n {
			ok, err := r.more()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	n = min(n, len(r.buf)-r.head)
	out := r.buf[r.head : r.head+n : r.head+n]
	r.head += n
	return out, nil
}

// Result is the outcome of run formation.
type Result struct {
	Runs []*runio.Run
	// NextSeq is the run sequence counter after formation, to be passed
	// on to the merge phase's placement.
	NextSeq int
}

// MemoryLoad forms initial runs by sorting 'load' records at a time. The
// paper's default is load = M/2.
func MemoryLoad[R record.KernelRecord](sys *pdisk.System, file *InputFile, load int, placement runio.Placement, seqStart int) (Result, error) {
	return MemoryLoadCores[R](sys, file, load, placement, seqStart, 1)
}

// MemoryLoadCores is MemoryLoad with each load sorted across up to cores
// goroutines (pmerge.Sort: per-core chunks + merge-back). The sorted
// loads — and therefore the written runs, and the I/O schedule — are
// byte-identical for every core count; cores <= 1 is exactly the serial
// record.SortRecords path.
func MemoryLoadCores[R record.KernelRecord](sys *pdisk.System, file *InputFile, load int, placement runio.Placement, seqStart, cores int) (Result, error) {
	if load < 1 {
		return Result{}, fmt.Errorf("runform: load %d", load)
	}
	r := NewReader[R](sys, file)
	res := Result{NextSeq: seqStart}
	var scratch []R // radix/merge-back buffer, reused across loads
	for {
		chunk, err := r.Read(load)
		if err != nil {
			return Result{}, err
		}
		if len(chunk) == 0 {
			break
		}
		if len(scratch) < len(chunk) {
			scratch = make([]R, len(chunk))
		}
		// The load is the reader's buffer, ours until the next Read: sort
		// it in place; WriteRun copies it into the run's blocks.
		pmerge.SortScratch(chunk, scratch, cores)
		run, err := runio.WriteRun(sys, res.NextSeq, placement.StartDisk(res.NextSeq), chunk)
		if err != nil {
			return Result{}, err
		}
		res.NextSeq++
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// ReplacementSelection forms initial runs with a selection heap of
// heapSize records. Records smaller than the last key emitted to the
// current run are tagged for the next run; when the current generation
// drains, a new run begins. Random inputs yield runs of expected length
// about 2*heapSize.
func ReplacementSelection[R record.KernelRecord](sys *pdisk.System, file *InputFile, heapSize int, placement runio.Placement, seqStart int) (Result, error) {
	return ReplacementSelectionCores[R](sys, file, heapSize, placement, seqStart, 1)
}

// ReplacementSelectionCores is ReplacementSelection with the bulk of the
// comparison work parallelized: each generation's resident records are
// sorted up front across up to cores goroutines (pmerge.Sort), and the
// run is then emitted by merging two sources — the sorted generation
// arena (a cursor) and a small heap of records admitted from the input
// during emission. Key ties go to the arena, so emission order is fully
// deterministic and independent of cores; the classical admission rule
// (an input record joins the current run iff its key is >= the last key
// emitted) is unchanged, so run boundaries, lengths and the I/O schedule
// match the serial algorithm exactly.
func ReplacementSelectionCores[R record.KernelRecord](sys *pdisk.System, file *InputFile, heapSize int, placement runio.Placement, seqStart, cores int) (Result, error) {
	if heapSize < 1 {
		return Result{}, fmt.Errorf("runform: heap size %d", heapSize)
	}
	rd := NewReader[R](sys, file)
	res := Result{NextSeq: seqStart}

	cur := make([]R, 0, heapSize)
	fill, err := rd.Read(heapSize)
	if err != nil {
		return Result{}, err
	}
	if len(fill) > 0 && fill[0].X() != "" {
		// The admission rule (repl.Key >= out.Key) and the arena-vs-heap
		// tie-break compare prefix words only; a record prefix-equal but
		// content-below the last emission would be admitted into the wrong
		// run. Fail fast rather than emit an unsorted run.
		return Result{}, fmt.Errorf("runform: replacement selection does not support variable-length records; use memory-load run formation")
	}
	cur = append(cur, fill...)
	// The next generation gathers here while the current one is emitted;
	// the two buffers then swap roles. A generation never outnumbers the
	// heap (the residency bound below), so neither buffer regrows.
	pendingNext := make([]R, 0, heapSize)

	// Admitted replacements live in a fixed arena of heapSize slots
	// indexed by the heap's handles; slots are recycled through a
	// freelist handed out in deterministic (ascending-first) order. The
	// classical invariant bounds residency: every emission removes one
	// record and every admission follows an emission, so
	// len(arena cursor remainder) + heap length never exceeds heapSize —
	// a free slot always exists at admission time — and the deferred
	// next-generation records number at most one per generation member.
	slots := make([]R, heapSize)
	free := make([]int, 0, heapSize)
	h := iheap.New(heapSize) // empty again at the end of every generation

	var scratch []R // radix/merge-back buffer, reused across generations
	for len(cur) > 0 {
		arena := cur // sorted in place: the generation is ours alone
		if len(scratch) < len(arena) {
			scratch = make([]R, len(arena))
		}
		pmerge.SortScratch(arena, scratch, cores)
		free = free[:0]
		for i := heapSize - 1; i >= 0; i-- {
			free = append(free, i)
		}
		w := runio.NewWriter[R](sys, res.NextSeq, placement.StartDisk(res.NextSeq))
		room, used := w.Room(), 0
		ai := 0
		for ai < len(arena) || h.Len() > 0 {
			var out R
			fromArena := h.Len() == 0
			if !fromArena && ai < len(arena) {
				_, minKey := h.Min()
				fromArena = uint64(arena[ai].K()) <= minKey
			}
			if fromArena {
				out = arena[ai]
				ai++
			} else {
				i, _ := h.PopMin()
				out = slots[i]
				free = append(free, i)
			}
			room[used] = out
			if used++; used == len(room) {
				if err := w.Commit(used); err != nil {
					return Result{}, err
				}
				room, used = w.Room(), 0
			}
			// Refill from the input if possible.
			repl, err := rd.Read(1)
			if err != nil {
				return Result{}, err
			}
			if len(repl) == 1 {
				if repl[0].K() >= out.K() {
					i := free[len(free)-1]
					free = free[:len(free)-1]
					slots[i] = repl[0]
					h.Push(i, uint64(repl[0].K()))
				} else {
					pendingNext = append(pendingNext, repl[0])
				}
			}
		}
		if err := w.Commit(used); err != nil {
			return Result{}, err
		}
		run, err := w.Finish()
		if err != nil {
			return Result{}, err
		}
		res.NextSeq++
		res.Runs = append(res.Runs, run)
		cur, pendingNext = pendingNext, arena[:0]
	}
	return res, nil
}
