package srm

import (
	"fmt"
	"runtime"
	"sync"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// SortStats aggregates the cost of all merge passes of a sort (run
// formation is accounted separately by the caller, as in the paper's
// formulas).
type SortStats struct {
	// MergePasses is the number of passes over the data after run
	// formation.
	MergePasses int
	// Merges is the total number of individual merges performed.
	Merges int
	// ReadOps and WriteOps total the parallel I/O operations of all
	// merges.
	ReadOps  int64
	WriteOps int64
	// Flushes, BlocksFlushed and BlocksReread total the flush activity.
	Flushes       int64
	BlocksFlushed int64
	BlocksReread  int64
	// TransposeOps totals PSV's transposition operations (included in
	// ReadOps and WriteOps).
	TransposeOps int64
}

func (s *SortStats) add(ms MergeStats) {
	s.Merges++
	s.ReadOps += ms.ReadOps
	s.WriteOps += ms.WriteOps
	s.TransposeOps += ms.TransposeOps
	s.Flushes += ms.Flushes
	s.BlocksFlushed += ms.BlocksFlushed
	s.BlocksReread += ms.BlocksReread
}

// PassFunc is invoked after each completed merge pass with the number of
// passes completed by this call (1-based), the surviving runs and the
// next run sequence number. It is the checkpoint hook: when one is
// installed, the pass's input runs are freed only after it returns, so a
// manifest persisted inside the callback always names live runs — and a
// crash at any instant leaves either the previous checkpoint's runs or
// this one's fully intact on the store. Returning an error aborts the
// sort.
type PassFunc func(pass int, survivors []*runio.Run, nextSeq int) error

// MergeFunc merges one group of a pass's runs into the run with sequence
// number seq whose block 0 lies on disk start, and reports what the merge
// did. It hands drained the address of each input block once it has
// merged the block's last record (drained is nil when the pass loop keeps
// the inputs for a checkpoint; its methods are then no-ops). It must count
// its own I/O: merges of one pass may share the disk system concurrently.
type MergeFunc func(group []*runio.Run, seq, start int, drained *runio.Freer) (*runio.Run, MergeStats, error)

// SortOpts selects the execution mode of SortRunsOpts and SortRunsWith.
// No option changes the runs or the statistics.
type SortOpts struct {
	// Async performs every merge with MergeOpts.Async (overlapped I/O).
	Async bool
	// Workers > 1 (or < 0 for GOMAXPROCS) executes the independent
	// merges of each pass concurrently; 0 or 1 runs them one at a time.
	Workers int
	// Cores > 1 spreads each merge's internal record comparison work
	// over up to that many goroutines (MergeOpts.Cores); 0 or 1 runs the
	// serial consumer. Cores composes with Async and Workers.
	Cores int
	// AfterPass, when non-nil, is the checkpoint hook described at
	// PassFunc.
	AfterPass PassFunc
}

// SortRunsOpts repeatedly merges the given sorted runs, r at a time, until
// one run remains, which it returns: SortRunsWith with SRM's PassMerge, under
// opts' Async and Cores.
func SortRunsOpts[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int, opts SortOpts) (*runio.Run, SortStats, int, error) {
	return SortRunsWith(sys, runs, r, placement, seqStart, opts, PassMerge[R](sys, r, MergeOpts{Async: opts.Async, Cores: opts.Cores}))
}

// SortRunsWith is the pass loop of every run-merging sort: it repeatedly
// merges the given sorted runs, r at a time, with merge until one run
// remains, which it returns. Placement chooses each output run's starting
// disk; run sequence numbering starts at seqStart and the final value is
// returned so callers can keep one global sequence across run formation
// and merging (the staggered placement of Section 8 depends on it).
// Without an AfterPass hook, every merge frees each input block as soon
// as it has drained it (MergeFunc's drained), so a pass holds its data
// about once; with one, the pass's inputs are freed after the hook. Of
// opts it reads Workers and AfterPass; merge carries the rest of the
// execution mode.
//
// Merges of disjoint run groups share no state except the disk system,
// which serialises individual I/O operations exactly as contending merges
// on real hardware would. Each pass assigns every merge its sequence
// number and starting disk before any merge runs, so the result — final
// run contents, statistics, operation counts — is the same whether the
// pass runs its merges one at a time or on a pool of opts.Workers.
func SortRunsWith(sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int, opts SortOpts, merge MergeFunc) (*runio.Run, SortStats, int, error) {
	if r < 2 {
		return nil, SortStats{}, seqStart, fmt.Errorf("srm: merge order R=%d, need >= 2", r)
	}
	if len(runs) == 0 {
		return nil, SortStats{}, seqStart, fmt.Errorf("srm: no runs to sort")
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		group []*runio.Run
		seq   int
		start int
		slot  int // index of the output in the next pass's runs
		out   *runio.Run
		ms    MergeStats
		err   error
	}
	do := func(j *job) {
		var drained *runio.Freer
		if opts.AfterPass == nil {
			drained = runio.NewFreer(sys)
		}
		j.out, j.ms, j.err = merge(j.group, j.seq, j.start, drained)
		if j.err == nil {
			j.err = drained.Flush()
		}
	}
	var stats SortStats
	seq := seqStart
	for len(runs) > 1 {
		stats.MergePasses++
		next := make([]*runio.Run, 0, (len(runs)+r-1)/r)
		var jobs []*job
		for off := 0; off < len(runs); off += r {
			group := runs[off:min(off+r, len(runs))]
			if len(group) > 1 {
				jobs = append(jobs, &job{group: group, seq: seq, start: placement.StartDisk(seq), slot: len(next)})
				seq++
			}
			// A singleton group passes through unchanged; re-merging it
			// would waste a full read+write of the run.
			next = append(next, group[0])
		}
		if workers <= 1 {
			for _, j := range jobs {
				if do(j); j.err != nil {
					return nil, stats, seq, j.err
				}
			}
		} else {
			sem := make(chan struct{}, workers)
			var wg sync.WaitGroup
			for _, j := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					do(j)
				}()
			}
			wg.Wait()
		}
		for _, j := range jobs {
			if j.err != nil {
				return nil, stats, seq, j.err
			}
			stats.add(j.ms)
			next[j.slot] = j.out
		}
		if opts.AfterPass != nil {
			// Checkpointing defers the pass's frees until its checkpoint
			// is saved, so a crash never strands the manifest pointing at
			// freed inputs.
			if err := opts.AfterPass(stats.MergePasses, next, seq); err != nil {
				return nil, stats, seq, err
			}
			for _, j := range jobs {
				if err := freeRuns(sys, j.group); err != nil {
					return nil, stats, seq, err
				}
			}
		}
		runs = next
	}
	return runs[0], stats, seq, nil
}

// freeRuns frees every block of the given runs.
func freeRuns(sys *pdisk.System, runs []*runio.Run) error {
	for _, in := range runs {
		if err := runio.Free(sys, in); err != nil {
			return err
		}
	}
	return nil
}
