// Package sim is the block-level SRM merge simulator used for the paper's
// average-case experiments (Section 9.3, Tables 3 and 4).
//
// The full merger in package srm moves every record through the simulated
// disks; at the paper's scale (runs of 1000 blocks, up to kD = 2500 runs)
// that is needlessly slow. All scheduling decisions of SRM, however, depend
// only on each block's first and last key: a block begins participating
// when the merge reaches its first key and is depleted when the merge
// passes its last key. The simulator therefore drives the schedule core of
// package sched — the one the real merger drives — with (firstKey,
// lastKey) pairs alone: it depletes the leading block with the smallest
// last key unless a stalled run's awaited block comes first. Integration
// tests in this package check that on identical inputs the simulator and
// the real merger produce identical trace event streams.
//
// Inputs are generated from the paper's average-case model: a uniformly
// random partition of {1..L·kD} into kD runs of L records. The sorted-order
// run-label sequence is sampled directly (each next label drawn with
// probability proportional to the run's remaining records, via a Fenwick
// tree), and only block boundaries are retained.
package sim

import (
	"fmt"
	"math/rand"

	"srmsort/internal/fenwick"
	"srmsort/internal/forecast"
	"srmsort/internal/iheap"
	"srmsort/internal/record"
	"srmsort/internal/sched"
	"srmsort/internal/trace"
)

// Run is a sorted run reduced to its block boundaries.
type Run struct {
	StartDisk int
	D         int
	// First[i] and Last[i] are the first and last keys of block i.
	First, Last []record.Key
}

// NumBlocks returns the run's block count.
func (r *Run) NumBlocks() int { return len(r.First) }

// Disk returns the disk holding block i under cyclic striping.
func (r *Run) Disk(i int) int { return (r.StartDisk + i) % r.D }

// FromRecords reduces a materialised sorted run to its block boundaries —
// used by the equivalence tests to feed the simulator and the real merger
// identical inputs.
func FromRecords(recs []record.Record, b, d, startDisk int) *Run {
	blocks := record.Blocks(recs, b)
	r := &Run{StartDisk: startDisk, D: d}
	for _, blk := range blocks {
		r.First = append(r.First, blk.FirstKey())
		r.Last = append(r.Last, blk.LastKey())
	}
	return r
}

// GenerateAverageCase samples the paper's average-case merge input:
// numRuns runs of blocksPerRun blocks of b records each, from a uniformly
// random partition of {1..N'} into equal-size runs. Only block boundaries
// are materialised; starting disks are NOT assigned (callers place runs).
func GenerateAverageCase(rng *rand.Rand, d, numRuns, blocksPerRun, b int) []*Run {
	if numRuns < 1 || blocksPerRun < 1 || b < 1 {
		panic(fmt.Sprintf("sim: GenerateAverageCase(%d, %d, %d)", numRuns, blocksPerRun, b))
	}
	runLen := blocksPerRun * b
	remaining := make([]int64, numRuns)
	for j := range remaining {
		remaining[j] = int64(runLen)
	}
	tree := fenwick.FromSlice(remaining)
	runs := make([]*Run, numRuns)
	counts := make([]int, numRuns)
	for j := range runs {
		runs[j] = &Run{
			D:     d,
			First: make([]record.Key, 0, blocksPerRun),
			Last:  make([]record.Key, 0, blocksPerRun),
		}
	}
	total := int64(numRuns) * int64(runLen)
	for pos := int64(1); pos <= total; pos++ {
		j := tree.FindRank(rng.Int63n(tree.Total()))
		tree.Add(j, -1)
		c := counts[j]
		if c%b == 0 {
			runs[j].First = append(runs[j].First, record.Key(pos))
		}
		counts[j] = c + 1
		if counts[j]%b == 0 || counts[j] == runLen {
			runs[j].Last = append(runs[j].Last, record.Key(pos))
		}
	}
	return runs
}

// GenerateBursty produces a harder-than-average merge input: the sorted
// output visits runs in bursts — each run, once selected, contributes a
// geometric(1/meanBurst) number of consecutive records before another run
// takes over. Large bursts concentrate consecutive block participations in
// few runs, stressing the prefetcher far more than the uniform-partition
// model (meanBurst = 1 degenerates to it). SRM's worst-case analysis
// (Lemmas 6-8) covers such inputs: tests check the measured reads against
// PhaseBound here too.
func GenerateBursty(rng *rand.Rand, d, numRuns, blocksPerRun, b, meanBurst int) []*Run {
	if numRuns < 1 || blocksPerRun < 1 || b < 1 || meanBurst < 1 {
		panic(fmt.Sprintf("sim: GenerateBursty(%d, %d, %d, %d)", numRuns, blocksPerRun, b, meanBurst))
	}
	runLen := blocksPerRun * b
	remaining := make([]int64, numRuns)
	for j := range remaining {
		remaining[j] = int64(runLen)
	}
	tree := fenwick.FromSlice(remaining)
	runs := make([]*Run, numRuns)
	counts := make([]int, numRuns)
	for j := range runs {
		runs[j] = &Run{
			D:     d,
			First: make([]record.Key, 0, blocksPerRun),
			Last:  make([]record.Key, 0, blocksPerRun),
		}
	}
	total := int64(numRuns) * int64(runLen)
	cur, burstLeft := -1, 0
	for pos := int64(1); pos <= total; pos++ {
		if burstLeft == 0 || cur < 0 || remaining[cur] == 0 {
			j := tree.FindRank(rng.Int63n(tree.Total()))
			cur = j
			// Geometric burst length with mean meanBurst.
			burstLeft = 1
			for rng.Intn(meanBurst) != 0 {
				burstLeft++
			}
		}
		j := cur
		burstLeft--
		remaining[j]--
		tree.Add(j, -1)
		c := counts[j]
		if c%b == 0 {
			runs[j].First = append(runs[j].First, record.Key(pos))
		}
		counts[j] = c + 1
		if counts[j]%b == 0 || counts[j] == runLen {
			runs[j].Last = append(runs[j].Last, record.Key(pos))
		}
	}
	return runs
}

// Stats reports a simulated merge: the schedule's counters, which
// srm.MergeStats carries too, plus the input size and the output writes.
type Stats struct {
	sched.Stats
	// TotalBlocks is the number of input blocks across all runs.
	TotalBlocks int
	// WriteOps is the (deterministic) count of output write operations:
	// ceil(outputBlocks / D) under perfect write parallelism.
	WriteOps int64
}

// OverheadV returns the paper's per-merge read overhead
// v = ReadOps / (totalBlocks/D) for these stats.
func (s Stats) OverheadV(d int) float64 {
	return float64(s.ReadOps) * float64(d) / float64(s.TotalBlocks)
}

// Merge simulates SRM merging the runs with merge-order capacity r on d
// disks and returns the I/O statistics. All runs must be striped over the
// same d disks.
func Merge(runs []*Run, d, r int) (Stats, error) {
	return MergeChannel(runs, d, d, r)
}

// MergeChannel simulates SRM on the paper's hybrid I/O model (Section 1):
// d disks share an I/O channel that carries at most channel blocks per
// operation ("D is the channel bandwidth ... and D' is the number of disks
// sharing the bandwidth"). Each operation still touches each disk at most
// once; when more disks have pending blocks than the channel can carry,
// the scheduler reads the channel-many candidates with the smallest keys.
// channel = d recovers the restrictive D = D' model of the rest of the
// paper.
func MergeChannel(runs []*Run, d, channel, r int) (Stats, error) {
	return merge(runs, d, channel, r, nil, untimed{})
}

// Clock times a simulated merge. MergeTimed calls it at every I/O
// operation and block event of the schedule, in schedule order; package
// timesim implements it.
type Clock interface {
	// Read issues one parallel read of the given blocks.
	Read(blocks []forecast.Entry)
	// Lead makes block idx of run h its run's leading block; the merge
	// cannot use it before the read that fetched it completes.
	Lead(h, idx int)
	// Consume merges every record up to key, the last key of the leading
	// block about to be depleted.
	Consume(key record.Key)
	// Pumped ends a round of reads: the schedule issues no more until the
	// next block event.
	Pumped()
}

// MergeTimed is Merge with the schedule reported to clock as it runs.
func MergeTimed(runs []*Run, d, r int, clock Clock) (Stats, error) {
	return merge(runs, d, d, r, nil, clock)
}

type untimed struct{}

func (untimed) Read([]forecast.Entry) {}
func (untimed) Lead(int, int)         {}
func (untimed) Consume(record.Key)    {}
func (untimed) Pumped()               {}

// simMerger is the block-boundary consumer the simulator drives the
// schedule core with.
type simMerger struct {
	runs   []*Run
	core   *sched.Core[record.Rec16]
	active *iheap.Heap // leading blocks keyed by their LAST key (depletion order)
	clock  Clock
}

// merge validates the input and runs the simulation on a channel of width
// w, reporting every schedule event to sink (nil for none) and every I/O
// operation and block event to clock.
func merge(runs []*Run, d, w, r int, sink trace.Sink, clock Clock) (Stats, error) {
	if w < 1 || w > d {
		return Stats{}, fmt.Errorf("sim: channel width %d with %d disks", w, d)
	}
	if len(runs) == 0 {
		return Stats{}, fmt.Errorf("sim: merge of zero runs")
	}
	if len(runs) > r {
		return Stats{}, fmt.Errorf("sim: %d runs exceed merge order R=%d", len(runs), r)
	}
	total := 0
	for _, run := range runs {
		if run.NumBlocks() == 0 {
			return Stats{}, fmt.Errorf("sim: empty run")
		}
		if run.D != d {
			return Stats{}, fmt.Errorf("sim: run striped over %d disks, system has %d", run.D, d)
		}
		total += run.NumBlocks()
	}
	m := &simMerger{runs: runs, active: iheap.New(len(runs)), clock: clock}
	m.core = sched.New(runs, r, d, w, sink, m.lead)
	for _, handles := range m.core.InitialBatches() {
		entries := make([]forecast.Entry, len(handles))
		recs := make([][]record.Rec16, len(handles))
		forecasts := make([][]record.Key, len(handles))
		for i, h := range handles {
			run := runs[h]
			entries[i] = forecast.Entry{Run: h, Key: run.First[0]}
			recs[i] = run.bounds(0)
			forecasts[i] = run.First[1:min(1+d, run.NumBlocks())]
		}
		clock.Read(entries)
		m.core.LandInitial(handles, recs, forecasts)
	}
	for !m.core.Done() {
		reads := 0
		for m.core.CanRead() {
			picks := m.core.NextRead()
			clock.Read(picks)
			m.core.Land(picks, func(i int) ([]record.Rec16, record.Key) {
				run, idx := runs[picks[i].Run], picks[i].BlockIdx
				succKey := record.MaxKey
				if idx+d < run.NumBlocks() {
					succKey = run.First[idx+d]
				}
				return run.bounds(idx), succKey
			})
			reads++
		}
		clock.Pumped()
		if !m.step() && reads == 0 {
			m.core.NoProgress()
		}
	}
	return Stats{Stats: m.core.Stats, TotalBlocks: total, WriteOps: int64((total + w - 1) / w)}, nil
}

// bounds stands in for block i's records: its first and last key.
func (r *Run) bounds(i int) []record.Rec16 {
	return []record.Rec16{{Key: r.First[i]}, {Key: r.Last[i]}}
}

// lead is the core's lead callback: block idx of run h joins the active
// set, keyed by its last key.
func (m *simMerger) lead(h, idx int, _ []record.Rec16) {
	m.clock.Lead(h, idx)
	m.active.Push(h, uint64(m.runs[h].Last[idx]))
}

// step advances the merge to the next block event, the depletion of the
// leading block with the smallest last key, and reports whether it did:
// when a stalled run's awaited block comes first in key order the merge
// must wait for I/O instead.
func (m *simMerger) step() bool {
	if m.active.Len() == 0 {
		return false // everything is stalled or exhausted; I/O must progress
	}
	h, lastKey := m.active.Min()
	if sKey, ok := m.core.StallMin(); ok && sKey < lastKey {
		return false
	}
	m.clock.Consume(record.Key(lastKey))
	m.active.Remove(h)
	m.core.Deplete(h, record.Key(lastKey))
	return true
}
