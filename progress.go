package srmsort

import (
	"sync"

	"srmsort/internal/analysis"
)

// Progress is a point-in-time snapshot of a running sort, delivered to
// Config.Progress. Snapshots are monotone: Pass and RecordsOut never
// decrease, RunsLeft never increases, and InitialRuns/TotalPasses are
// fixed once run formation completes.
type Progress struct {
	// InitialRuns is the number of runs produced by run formation; zero
	// until formation completes.
	InitialRuns int
	// Pass is the number of completed merge passes. A resumed sort
	// starts from the checkpointed pass count, not zero.
	Pass int
	// TotalPasses is the predicted number of merge passes for the whole
	// sort (completed ones included); fixed after run formation.
	TotalPasses int
	// RunsLeft is the number of runs still to be merged into one.
	RunsLeft int
	// RecordsOut is the number of sorted records emitted to the consumer
	// so far. It stays zero until the merge is complete and the final
	// run starts streaming out.
	RecordsOut int64
}

// emitEvery is the RecordsOut reporting granularity: one Progress
// callback per this many emitted records (plus one final callback when
// the stream ends).
const emitEvery = 8192

// progressTracker serialises Progress snapshots to a callback. All
// methods are nil-receiver-safe, so sorting code can call them
// unconditionally; the callback runs synchronously on whichever sort
// goroutine crossed the reporting point, under the tracker's lock —
// callbacks must be fast and must not re-enter the sort.
type progressTracker struct {
	mu      sync.Mutex
	fn      func(Progress)
	cur     Progress
	pending int64 // emitted records not yet reported
}

func newProgressTracker(fn func(Progress)) *progressTracker {
	if fn == nil {
		return nil
	}
	return &progressTracker{fn: fn}
}

// formed records the start of the merge phase: runsLeft runs remain to
// be merged R at a time, and base merge passes were already completed
// (non-zero only for a resumed sort, where initialRuns comes from the
// manifest and runsLeft from the recovered checkpoint generation).
func (t *progressTracker) formed(initialRuns, runsLeft, r, base int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.InitialRuns = initialRuns
	t.cur.Pass = base
	t.cur.TotalPasses = base + analysis.MergePasses(runsLeft, r)
	t.cur.RunsLeft = runsLeft
	t.fn(t.cur)
}

// pass records the completion of merge pass base+done with runsLeft
// surviving runs.
func (t *progressTracker) pass(base, done, runsLeft int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.Pass = base + done
	t.cur.RunsLeft = runsLeft
	t.fn(t.cur)
}

// emitted counts n more records delivered to the consumer, reporting
// every emitEvery records.
func (t *progressTracker) emitted(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pending += n
	if t.pending >= emitEvery {
		t.cur.RecordsOut += t.pending
		t.pending = 0
		t.fn(t.cur)
	}
}

// finish flushes the emission remainder — the stream is complete.
func (t *progressTracker) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.RecordsOut += t.pending
	t.pending = 0
	t.fn(t.cur)
}
