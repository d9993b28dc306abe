// Package psv implements the merge of Pai, Schaffer & Varman ("Markov
// analysis of multiple-disk prefetching strategies for external merging",
// TCS 1994) that the paper discusses in Section 2.1 as prior work,
// together with the transposition pass a mergesort built on it needs.
//
// In the PSV scheme each of the R = D input runs resides entirely on its
// own disk, so a parallel read can fetch the next block of every run at
// once; per-run lookahead buffers absorb rate differences between runs.
// The scheme's structural costs, which the paper criticises, fall out of
// the implementation directly:
//
//   - the merge order is fixed at D (one run per disk), independent of how
//     much memory is available;
//   - the output run must be striped across the disks to get full write
//     bandwidth, so before the next merge pass every striped run has to be
//     transposed back onto a single disk — an extra read+write pass over
//     the data per merge level;
//   - the transposition stage needs D full stripes in memory (one per
//     destination disk) to run at full parallelism: Θ(D²B) records, which
//     is the paper's "internal memory size needs to be Ω(D²B)".
//
// Between merge levels a PSV run is an ordinary striped runio.Run: the
// root package forms the runs with package runform, starting run s on
// disk s mod D (runio.StaggeredPlacement), and merges them D at a time in
// srm.SortRunsWith's pass loop, like SRM and DSM. Only the work on one
// group of runs differs, and Merge is that work. Its merge runs the kernel
// every merger shares (ltree.Kernel) over each run's queue of buffered
// blocks; PSV adds only the read decisions it makes when a block ends.
package psv

import (
	"fmt"

	"srmsort/internal/ltree"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

// DiskRun is a sorted run resident entirely on one disk, stored as
// consecutive blocks read sequentially.
type DiskRun struct {
	ID      int
	Disk    int
	Records int
	indexes []int32
}

// NumBlocks returns the run's block count.
func (r *DiskRun) NumBlocks() int { return len(r.indexes) }

// Addr returns the disk address of block i.
func (r *DiskRun) Addr(i int) pdisk.BlockAddr {
	if i < 0 || i >= len(r.indexes) {
		panic(fmt.Sprintf("psv: block %d of run %d with %d blocks", i, r.ID, len(r.indexes)))
	}
	return pdisk.BlockAddr{Disk: r.Disk, Index: int(r.indexes[i])}
}

// WriteDiskRun stores sorted records as a single-disk run. Writing is
// inherently serial (one block per operation — the destination disk is the
// bottleneck); the transposition stage below is how PSV amortises this
// across D runs.
func WriteDiskRun[R record.KernelRecord](sys *pdisk.System, id, disk int, records []R) (*DiskRun, error) {
	run := &DiskRun{ID: id, Disk: disk}
	for _, blk := range record.BlocksOf(records, sys.B()) {
		addr := sys.Alloc(disk)
		if err := sys.WriteBlocks([]pdisk.BlockWrite{{
			Addr:  addr,
			Block: pdisk.MakeStored(append(pdisk.NewBlock[R](sys.B()), blk...), nil),
		}}); err != nil {
			return nil, err
		}
		run.indexes = append(run.indexes, int32(addr.Index))
		run.Records += len(blk)
	}
	return run, nil
}

// ReadAllDiskRun reads a single-disk run back sequentially (verification
// helper; one block per operation).
func ReadAllDiskRun[R record.KernelRecord](sys *pdisk.System, r *DiskRun) ([]R, error) {
	out := make([]R, 0, r.Records)
	for i := 0; i < r.NumBlocks(); i++ {
		blks, err := sys.ReadBlocks([]pdisk.BlockAddr{r.Addr(i)})
		if err != nil {
			return nil, err
		}
		out = append(out, pdisk.RecsOf[R](blks[0])...)
	}
	return out, nil
}

// Merge returns PSV's merge for srm.SortRunsWith. It transposes the
// group's striped runs so that run j lies on disk j (Transpose, which
// hands each striped block to drained once copied), and merges those
// one-disk runs back into the striped run id whose block 0 lies on disk
// start, freeing each one-disk block once merged. Each run gets a
// lookahead buffer of bufBlocks blocks (analysis.PSVLookahead). The merge
// counts its own operations, the transposition's included and also
// reported as TransposeOps, so its statistics stay exact when merges
// share the System.
func Merge[R record.KernelRecord](sys *pdisk.System, bufBlocks int) srm.MergeFunc {
	return func(runs []*runio.Run, id, start int, drained *runio.Freer) (*runio.Run, srm.MergeStats, error) {
		diskRuns, ts, err := Transpose[R](sys, runs, drained)
		if err != nil {
			return nil, srm.MergeStats{}, err
		}
		out, ms, err := mergeDiskRuns[R](sys, diskRuns, bufBlocks, id, start)
		if err != nil {
			return nil, ms, err
		}
		ms.ReadOps += ts.ReadOps
		ms.WriteOps += ts.WriteOps
		ms.TransposeOps = ts.ReadOps + ts.WriteOps
		return out, ms, nil
	}
}

// mergeDiskRuns merges up to D single-disk runs (at most one per disk)
// into a striped output run written through the runio writer (full write
// parallelism), and frees each input block once merged: the one-disk runs
// live only inside Merge. Each run gets a lookahead buffer of bufBlocks
// blocks; whenever any buffer has space and its run has unread blocks, a
// parallel read fetches the next block of every such run in one
// operation.
func mergeDiskRuns[R record.KernelRecord](sys *pdisk.System, runs []*DiskRun, bufBlocks, outID, outStartDisk int) (*runio.Run, srm.MergeStats, error) {
	var stats srm.MergeStats
	if len(runs) == 0 {
		return nil, stats, fmt.Errorf("psv: merge of zero runs")
	}
	if len(runs) > sys.D() {
		return nil, stats, fmt.Errorf("psv: %d runs exceed D=%d (one run per disk)", len(runs), sys.D())
	}
	if bufBlocks < 1 {
		return nil, stats, fmt.Errorf("psv: buffer of %d blocks", bufBlocks)
	}
	seen := make(map[int]bool)
	for _, r := range runs {
		if seen[r.Disk] {
			return nil, stats, fmt.Errorf("psv: two runs on disk %d", r.Disk)
		}
		seen[r.Disk] = true
	}

	// queue[i] holds run i's buffered blocks, the one being merged first.
	queue := make([][][]R, len(runs))
	next := make([]int, len(runs)) // next block index to read
	drained := runio.NewFreer(sys)

	readable := func(i int) bool {
		return len(queue[i]) < bufBlocks && next[i] < runs[i].NumBlocks()
	}
	parRead := func() error {
		var addrs []pdisk.BlockAddr
		var who []int
		for i := range runs {
			if readable(i) {
				addrs = append(addrs, runs[i].Addr(next[i]))
				who = append(who, i)
			}
		}
		if len(addrs) == 0 {
			return nil
		}
		blocks, err := sys.ReadBlocks(addrs)
		if err != nil {
			return err
		}
		stats.ReadOps++
		for j, blk := range blocks {
			i := who[j]
			queue[i] = append(queue[i], pdisk.RecsOf[R](blk))
			next[i]++
		}
		return nil
	}

	// Prime the buffers.
	for anyReadable(readable, len(runs)) {
		if err := parRead(); err != nil {
			return nil, stats, err
		}
	}

	w := runio.NewWriter[R](sys, outID, outStartDisk)
	k := ltree.NewKernel[R](len(runs), false)
	for i := range runs {
		if len(queue[i]) > 0 {
			k.Push(i, queue[i][0])
		}
	}
	for {
		// The kernel merges one block per run at a time and stops at
		// each block's end, where PSV's read decisions happen.
		room := w.Room()
		n, i, ended := k.Fill(room)
		if err := w.Commit(n); err != nil {
			return nil, stats, err
		}
		if !ended {
			if n < len(room) {
				break
			}
			continue
		}
		// The merged block is the one before run i's buffered ones.
		if err := drained.Drained(runs[i].Addr(next[i] - len(queue[i]))); err != nil {
			return nil, stats, err
		}
		queue[i] = queue[i][1:]
		// Opportunistic prefetch, but only when it achieves full
		// parallelism: every run that still has blocks on disk can
		// accept one. Reading on every freed slot would fetch single
		// blocks and waste the other disks' positions in the op.
		if allReadable(readable, next, runs) {
			if err := parRead(); err != nil {
				return nil, stats, err
			}
		}
		if len(queue[i]) == 0 && next[i] < runs[i].NumBlocks() {
			// The merge is blocked on this run: PSV reads on demand.
			if err := parRead(); err != nil {
				return nil, stats, err
			}
		}
		if len(queue[i]) > 0 {
			k.Push(i, queue[i][0])
		}
	}
	out, err := w.Finish()
	if err != nil {
		return nil, stats, err
	}
	if err := drained.Flush(); err != nil {
		return nil, stats, err
	}
	stats.WriteOps = w.WriteOps()
	stats.RecordsOut = out.Records
	return out, stats, nil
}

func anyReadable(readable func(int) bool, n int) bool {
	for i := 0; i < n; i++ {
		if readable(i) {
			return true
		}
	}
	return false
}

// allReadable reports whether every run with blocks still on disk can
// accept a block — the condition under which an opportunistic read attains
// full parallelism.
func allReadable(readable func(int) bool, next []int, runs []*DiskRun) bool {
	some := false
	for i := range runs {
		if next[i] >= runs[i].NumBlocks() {
			continue // exhausted on disk: cannot participate anyway
		}
		if !readable(i) {
			return false
		}
		some = true
	}
	return some
}
