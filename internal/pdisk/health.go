package pdisk

import (
	"sort"
	"sync"
	"time"
)

// healthWindow is how many recent latency samples each disk's windowed
// p99 is computed over.
const healthWindow = 256

// healthAlpha is the EWMA smoothing factor: each sample moves the
// average 20% of the way toward itself, so the estimate follows a
// degrading disk within a few dozen operations without jittering on
// every outlier.
const healthAlpha = 0.2

// DiskHealth is one disk's latency and timeout accounting.
type DiskHealth struct {
	Disk int `json:"disk"`
	// Ops is how many operations completed (successfully or not) and
	// contributed a latency sample.
	Ops int64 `json:"ops"`
	// Timeouts is how many operations on this disk were abandoned at
	// their deadline. Each contributes the deadline itself as a latency
	// sample — the op took at least that long.
	Timeouts int64 `json:"timeouts"`
	// EWMAMicros is the exponentially weighted moving average latency in
	// microseconds.
	EWMAMicros float64 `json:"ewma_micros"`
	// P99Micros is the 99th-percentile latency over the last
	// healthWindow samples, in microseconds.
	P99Micros float64 `json:"p99_micros"`
}

// HealthStats is a point-in-time snapshot of a HealthTracker: per-disk
// latency tracking plus the hedging counters. It appears in pdisk.Stats
// (and from there srmsort -v and sortd /stats) whenever the System has a
// Deadline policy.
type HealthStats struct {
	PerDisk []DiskHealth `json:"per_disk"`
	// HedgedReads is how many reads were re-issued after the hedge
	// delay; HedgeWins how many of those hedge legs delivered the block
	// first.
	HedgedReads int64 `json:"hedged_reads"`
	HedgeWins   int64 `json:"hedge_wins"`
	// Timeouts is the total operations abandoned at their deadline,
	// across all disks.
	Timeouts int64 `json:"timeouts"`
}

// HealthReporter is how a hand-built store stack surfaces its deadline
// layer's tracker: DeadlineStore implements it, wrappers above
// (RetryStore) forward it, and a System with no Deadline policy of its
// own reports it in Stats.Health. A nil return means no tracker below.
type HealthReporter interface {
	HealthSnapshot() *HealthStats
}

// HealthTracker accumulates per-disk latency (EWMA + a windowed p99)
// and hedge/timeout counters. Safe for concurrent use; one tracker may
// be shared by many engines (sortd gives every job's System one
// server-wide tracker, keyed by simulated disk index).
type HealthTracker struct {
	mu        sync.Mutex
	disks     map[int]*diskHealth
	hedges    int64
	hedgeWins int64
	timeouts  int64
}

type diskHealth struct {
	ops      int64
	timeouts int64
	ewma     float64   // microseconds
	window   []float64 // ring of recent samples, len <= healthWindow
	next     int       // overwrite position once the ring is full
}

// NewHealthTracker returns an empty tracker.
func NewHealthTracker() *HealthTracker {
	return &HealthTracker{disks: make(map[int]*diskHealth)}
}

// diskLocked returns (creating if needed) the accounting for disk.
func (t *HealthTracker) diskLocked(disk int) *diskHealth {
	d := t.disks[disk]
	if d == nil {
		d = &diskHealth{window: make([]float64, 0, healthWindow)}
		t.disks[disk] = d
	}
	return d
}

// Observe records one completed operation's latency on disk.
func (t *HealthTracker) Observe(disk int, latency time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observeLocked(disk, latency)
}

// observeOp records the samples of one engine op under one lock: the
// latency of every transfer whose final attempt succeeded, and the wins
// of its hedge legs.
func (t *HealthTracker) observeOp(xs []xfer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range xs {
		if x := &xs[i]; x.ok && x.err == nil {
			t.observeLocked(x.addr.Disk, x.lat)
			if x.won {
				t.hedgeWins++
			}
		}
	}
}

func (t *HealthTracker) observeLocked(disk int, latency time.Duration) {
	micros := float64(latency) / float64(time.Microsecond)
	d := t.diskLocked(disk)
	d.ops++
	if d.ops == 1 {
		d.ewma = micros
	} else {
		d.ewma += healthAlpha * (micros - d.ewma)
	}
	if len(d.window) < healthWindow {
		d.window = append(d.window, micros)
	} else {
		d.window[d.next] = micros
		d.next = (d.next + 1) % healthWindow
	}
}

// Timeout records an operation on disk abandoned at its deadline. The
// deadline is charged as a latency sample: the true latency is unknown
// but at least that large.
func (t *HealthTracker) Timeout(disk int, deadline time.Duration) {
	t.mu.Lock()
	t.diskLocked(disk).timeouts++
	t.timeouts++
	t.mu.Unlock()
	t.Observe(disk, deadline)
}

// Hedged records one hedge leg issued.
func (t *HealthTracker) Hedged() {
	t.mu.Lock()
	t.hedges++
	t.mu.Unlock()
}

// Snapshot returns the tracker's current state, disks in index order.
func (t *HealthTracker) Snapshot() HealthStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.disks))
	for id := range t.disks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := HealthStats{
		HedgedReads: t.hedges,
		HedgeWins:   t.hedgeWins,
		Timeouts:    t.timeouts,
	}
	for _, id := range ids {
		d := t.disks[id]
		out.PerDisk = append(out.PerDisk, DiskHealth{
			Disk:       id,
			Ops:        d.ops,
			Timeouts:   d.timeouts,
			EWMAMicros: d.ewma,
			P99Micros:  p99(d.window),
		})
	}
	return out
}

// p99 is the 99th percentile of samples (0 when empty).
func p99(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := (len(s)*99 + 99) / 100 // ceil(0.99·n)
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}
