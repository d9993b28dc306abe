// Package timesim estimates the elapsed (wall-clock) time of an SRM merge
// by simulating the paper's two concurrent control flows (Section 5):
// internal merge processing on a CPU and I/O scheduling on a parallel disk
// channel that serves one operation at a time.
//
// Operation *counts* (package sim) decide the asymptotics; *overlap*
// decides the constant in practice, which is why the paper stresses that
// SRM "overlaps I/O operations and internal computation" and that ParReads
// have "genuine prefetching ability" (Lemma 1). The simulator makes that
// claim measurable: reads are issued as soon as the schedule of Section
// 5.5 allows — usually long before their blocks participate — so their
// latency hides behind merging; the CPU waits only when a stalled run's
// block is genuinely late.
//
// The schedule is package sim's, unchanged: this package only attaches a
// clock to it (sim.MergeTimed), so the operation counts are the untimed
// simulator's by construction.
//
// Inputs are the block-boundary runs of package sim whose keys are dense
// global positions (the average-case and bursty generators): the CPU time
// to reach key position p is exactly p · CPUPerRecord.
package timesim

import (
	"fmt"

	"srmsort/internal/forecast"
	"srmsort/internal/record"
	"srmsort/internal/sim"
)

// Params configures the two resources.
type Params struct {
	// B is the block size in records of the input runs (the generators
	// produce uniform blocks); it converts key positions into output
	// stripe counts.
	B int
	// OpSeconds is the duration of one parallel I/O operation (read or
	// write) — e.g. pdisk.TimeModel.OpSeconds(B).
	OpSeconds float64
	// CPUPerRecord is the internal merge processing time per record.
	CPUPerRecord float64
	// Overlap enables the concurrent control flows; with false, every
	// I/O operation blocks the CPU (the naive serial implementation).
	Overlap bool
	// QueueDepth bounds the I/O channel backlog in overlap mode: issuing
	// an operation while QueueDepth operations are already queued blocks
	// the issuing flow until the backlog drains below the bound. The real
	// async pipeline runs at depth 1: after Step 1, one read op in flight
	// per merge, one write stripe per writer. 0 means unbounded.
	// QueueDepth 1 is classic double buffering; the makespan decreases
	// monotonically with depth (serial ≥ depth 1 ≥ depth k ≥ unbounded).
	QueueDepth int
}

// Result reports the timing outcome.
type Result struct {
	// Makespan is the elapsed time to complete the merge, final writes
	// included.
	Makespan float64
	// CPUBusy is the pure computation demand (records × CPUPerRecord).
	CPUBusy float64
	// IOBusy is the pure I/O demand (operations × OpSeconds).
	IOBusy float64
	// CPUStall is the total time internal merging waited for blocks.
	CPUStall float64
	// ReadOps and WriteOps are the operation counts (identical to the
	// untimed simulator's).
	ReadOps, WriteOps int64
}

// Efficiency returns how close the makespan is to the overlap ideal
// max(CPUBusy, IOBusy): 1.0 means latency fully hidden.
func (r Result) Efficiency() float64 {
	ideal := r.CPUBusy
	if r.IOBusy > ideal {
		ideal = r.IOBusy
	}
	if r.Makespan == 0 {
		return 1
	}
	return ideal / r.Makespan
}

// clock is the sim.Clock that times one merge.
type clock struct {
	d int
	p Params

	cpu       float64    // merge-processing clock
	pos       record.Key // last merge position (global key) accounted
	ioFree    float64    // when the I/O channel finishes its current op
	stallTime float64
	ready     map[[2]int]float64 // block -> read completion time
	outBlocks int                // output blocks generated so far
	written   int                // output blocks already covered by write ops
	writeOps  int64
}

// Merge runs the timed simulation. Runs must carry dense position keys
// (GenerateAverageCase / GenerateBursty / UniformPartitionRuns-derived).
func Merge(runs []*sim.Run, d, r int, p Params) (Result, error) {
	if p.OpSeconds <= 0 || p.CPUPerRecord < 0 || p.B < 1 {
		return Result{}, fmt.Errorf("timesim: bad params %+v", p)
	}
	c := &clock{d: d, p: p, ready: make(map[[2]int]float64)}
	stats, err := sim.MergeTimed(runs, d, r, c)
	if err != nil {
		return Result{}, err
	}
	// Remaining output stripes drain through the channel.
	c.drainWrites(true)
	res := Result{
		CPUBusy:  cpuDemand(runs, p),
		IOBusy:   float64(stats.ReadOps+c.writeOps) * p.OpSeconds,
		CPUStall: c.stallTime,
		Makespan: c.cpu,
		ReadOps:  stats.ReadOps,
		WriteOps: c.writeOps,
	}
	if c.ioFree > res.Makespan {
		res.Makespan = c.ioFree
	}
	return res, nil
}

func cpuDemand(runs []*sim.Run, p Params) float64 {
	// Keys are dense global positions across runs; the total record count
	// is the largest last key.
	var maxKey record.Key
	for _, run := range runs {
		if k := run.Last[run.NumBlocks()-1]; k > maxKey {
			maxKey = k
		}
	}
	return float64(maxKey) * p.CPUPerRecord
}

// Read reserves the I/O channel for one parallel read starting no earlier
// than now (reads are issued by the scheduler as soon as their
// precondition holds, i.e. at the current CPU time) and notes when its
// blocks arrive.
func (c *clock) Read(blocks []forecast.Entry) {
	complete := c.issueOp()
	for _, e := range blocks {
		c.ready[[2]int{e.Run, e.BlockIdx}] = complete
	}
}

// Lead makes the merge wait for a new leading block's read to complete —
// usually zero for a prefetched block.
func (c *clock) Lead(h, idx int) {
	c.waitUntil(c.ready[[2]int{h, idx}])
	delete(c.ready, [2]int{h, idx})
}

// Pumped issues the output stripes owed so far, which also occupy the
// channel.
func (c *clock) Pumped() { c.drainWrites(false) }

// issueOp reserves the I/O channel for one operation and returns its
// completion time.
func (c *clock) issueOp() float64 {
	if c.p.Overlap && c.p.QueueDepth > 0 {
		// Backpressure: with QueueDepth operations already queued, the
		// issuing flow blocks until the channel drains below the bound.
		if lag := c.ioFree - float64(c.p.QueueDepth)*c.p.OpSeconds; lag > c.cpu {
			c.waitUntil(lag)
		}
	}
	start := c.ioFree
	if c.cpu > start {
		start = c.cpu
	}
	c.ioFree = start + c.p.OpSeconds
	if !c.p.Overlap {
		// Serial mode: the CPU blocks for the whole operation.
		c.waitUntil(c.ioFree)
	}
	return c.ioFree
}

// waitUntil advances the CPU clock to t, accounting the wait as stall.
func (c *clock) waitUntil(t float64) {
	if t > c.cpu {
		c.stallTime += t - c.cpu
		c.cpu = t
	}
}

// drainWrites issues write operations for completed output stripes (D
// blocks each; with final, the partial tail too).
func (c *clock) drainWrites(final bool) {
	owe := c.outBlocks/c.d*c.d - c.written
	if final {
		owe = c.outBlocks - c.written
	}
	for owe > 0 {
		c.issueOp()
		c.writeOps++
		n := min(c.d, owe)
		c.written += n
		owe -= n
	}
}

// Consume moves the CPU clock forward by the processing time of the
// records between the last accounted merge position and key (keys are
// dense global positions) and accounts the output stripes produced.
func (c *clock) Consume(key record.Key) {
	if key > c.pos {
		c.cpu += float64(key-c.pos) * c.p.CPUPerRecord
		c.pos = key
	}
	c.outBlocks = int(c.pos) / c.p.B
}
