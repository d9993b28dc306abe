// Package dsm implements the merge of disk-striped mergesort, the
// baseline SRM is compared against throughout the paper (Sections 1 and
// 9).
//
// DSM coordinates the D disks so that every I/O operation accesses the same
// block index on each disk — logically one disk with block size D*B. That
// is the run layout of package runio with every run starting on disk 0
// (runio.FixedPlacement{Disk: 0}): block i of every run on disk i mod D,
// so each stripe of D blocks is one logical block. DSM forms its runs with
// package runform and merges them in srm.SortRunsWith's pass loop, like
// SRM; only the merge differs. It reads one stripe per I/O operation,
// exactly when a run's blocks in memory have drained, and writes the
// output the same way. Striping gives perfect parallelism for free, but
// with the paper's memory budget M = (2k+4)DB + kD^2 it can merge only
//
//	R_DSM = (M/B − 2D) / 2D = k + 1 + kD/2B
//
// runs at a time (2 logical blocks of read buffer per run, double-buffered,
// plus 2 logical blocks of write buffer — runio.Writer's 2D blocks),
// against SRM's R = kD. The extra passes are DSM's entire disadvantage:
// per pass it performs the minimal N/DB reads and N/DB writes.
package dsm

import (
	"srmsort/internal/ltree"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

// Merge returns DSM's merge for srm.SortRunsWith: the classical k-way
// merge with striped disks. Internal merging runs the merge kernel every
// merger shares (ltree.Kernel, the tournament tree of losers of [Knu73],
// the paper's reference for internal merge processing) over each run's
// current block, filling the output writer's block in place. A run's
// stripe is read in one parallel operation once the blocks of its
// previous stripe have drained, so the number of read operations is
// precisely the total number of input stripes; the kernel takes the
// stripe's blocks one at a time, as stored.
//
// async prefetches each run's next stripe while the current one is
// consumed (the double buffering DSM's memory budget of 2 logical blocks
// per run provides for) and writes output stripes behind the merge; every
// stripe is still read and written exactly once, so statistics and output
// do not change. The merge counts its own operations, so its statistics
// stay exact when merges share the System. Each block goes to drained
// once the kernel has emptied it.
func Merge[R record.KernelRecord](sys *pdisk.System, async bool) srm.MergeFunc {
	return func(runs []*runio.Run, id, start int, drained *runio.Freer) (*runio.Run, srm.MergeStats, error) {
		var ms srm.MergeStats
		readers := make([]*runio.StripeReader, len(runs))
		for i, r := range runs {
			readers[i] = runio.NewStripeReader(sys, r, async)
		}
		// On any return, no read may be left in flight: an unwaited future
		// is an unaccounted operation.
		defer func() {
			for _, rd := range readers {
				rd.Close()
			}
		}()
		k := ltree.NewKernel[R](len(runs), false)
		// hand[i] holds the blocks of run i's current stripe not yet pushed.
		hand := make([][]pdisk.StoredBlock, len(runs))
		// pushed[i] counts run i's blocks pushed to the kernel so far.
		pushed := make([]int, len(runs))
		// next pushes run i's next block, reading its next stripe when the
		// blocks in hand have drained; a run with none left stays retired.
		next := func(i int) error {
			if len(hand[i]) == 0 {
				if readers[i].Left() == 0 {
					return nil
				}
				blks, err := readers[i].Read()
				if err != nil {
					return err
				}
				ms.ReadOps++
				hand[i] = blks
			}
			k.Push(i, pdisk.RecsOf[R](hand[i][0]))
			hand[i] = hand[i][1:]
			pushed[i]++
			return nil
		}
		for i := range runs {
			if err := next(i); err != nil {
				return nil, ms, err
			}
		}
		newWriter := runio.NewWriter[R]
		if async {
			newWriter = runio.NewWriterAsync[R]
		}
		w := newWriter(sys, id, start)
		for {
			room := w.Room()
			n, i, ended := k.Fill(room)
			if err := w.Commit(n); err != nil {
				return nil, ms, err
			}
			if ended {
				if err := drained.Drained(runs[i].Addr(pushed[i] - 1)); err != nil {
					return nil, ms, err
				}
				if err := next(i); err != nil {
					return nil, ms, err
				}
			} else if n < len(room) {
				break
			}
		}
		out, err := w.Finish()
		if err != nil {
			return nil, ms, err
		}
		ms.WriteOps = w.WriteOps()
		ms.RecordsOut = out.Records
		return out, ms, nil
	}
}
