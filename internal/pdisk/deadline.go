package pdisk

import (
	"errors"
	"fmt"
	"time"
)

// ErrDeadline is the base error of every transfer abandoned at its
// deadline. It is classified Retryable — the retry rule re-issues the
// transfer and charges the timeout to the disk's error budget, so a
// persistently stuck disk degrades to ErrDiskOffline instead of hanging
// the merge.
var ErrDeadline = errors.New("pdisk: operation deadline exceeded")

// DeadlineError reports one transfer abandoned at its deadline.
type DeadlineError struct {
	Op       string
	Addr     BlockAddr
	Deadline time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("pdisk: %s %v exceeded its %v deadline", e.Op, e.Addr, e.Deadline)
}

// Unwrap exposes ErrDeadline to errors.Is.
func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// DeadlinePolicy configures the deadline, hedging and health tracking of
// a System (Config.Deadline) or a DeadlineStore. Like RetryPolicy, every
// time-dependent act goes through an injected function (After, Now), so
// tests drive the deadline and hedge timers deterministically.
type DeadlinePolicy struct {
	// OpDeadline bounds every block transfer on its own: a transfer still
	// in flight once it has run OpDeadline fails with a DeadlineError
	// (retryable) while the issued call continues in the background. The
	// clock starts when the transfer itself starts, not its parallel op,
	// so a transfer queued behind others of its op is not charged for
	// their time. 0 means no deadline.
	OpDeadline time.Duration
	// HedgeAfter re-issues a read still in flight after this delay and
	// takes whichever result arrives first — the tail-latency hedge.
	// The losing leg's block is discarded, which the ownership-handoff
	// contract makes safe: blocks are immutable once returned, so an
	// abandoned result holds no aliasing hazard. 0 disables hedging, and
	// so does a delay no shorter than OpDeadline (the deadline would
	// abandon the read before the hedge could help). Reads only: writes
	// and frees are not idempotent-by-timing in the same way and are
	// joined, not raced (see engine.go).
	HedgeAfter time.Duration
	// Tracker, if non-nil, receives the latency/health accounting; nil
	// gives the System or store a private tracker. sortd shares one
	// tracker across every job.
	Tracker *HealthTracker
	// After is the timer source; nil means a pooled runtime timer,
	// stopped and recycled as soon as the operation completes (deadlines
	// are long relative to ops, so letting every timer live until it
	// fires — as time.After would — accumulates them by the tens of
	// thousands). An op asks for one timer at a time, for its next due
	// event: a hedged read asks for the hedge delay first and, once it
	// fires, for the rest of the deadline. A tick is authoritative for
	// the in-flight transfer it was armed for; any other in-flight
	// transfer is judged by Now. Only an op's waiter receives an injected
	// tick, so an async op's ticks wait until it is waited.
	After func(time.Duration) <-chan time.Time
	// Now is the clock latency samples are measured with; nil means
	// time.Now.
	Now func() time.Time
}

// withDefaults resolves nil time sources. After stays nil here: an op
// distinguishes an injected source (left to fire on its own — tests own
// its lifecycle) from the pooled runtime timer it stops and recycles the
// moment the operation completes.
func (p DeadlinePolicy) withDefaults() DeadlinePolicy {
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// DeadlineStore wraps a Store and bounds every block operation with a
// per-op deadline, hedges straggling reads, and tracks per-disk latency.
// It is the System's I/O engine (see engine.go) driven one transfer at a
// time, for store stacks built by hand: a System takes the same policy
// through Config.Deadline instead, and bounds whole parallel ops.
//
// Deadline errors are Retryable, so a RetryStore above re-issues them and
// charges the disk's error budget. Stop (or Close) ends the executors.
// Manifest, frontier and the other optional capabilities forward without
// deadlines — they are recovery-path traffic, not the per-block hot path
// the straggler model concerns.
type DeadlineStore struct{ *engine }

// NewDeadlineStore wraps inner under the given policy. A policy with
// neither OpDeadline nor HedgeAfter still tracks latency, inline.
func NewDeadlineStore(inner Store, policy DeadlinePolicy) *DeadlineStore {
	return &DeadlineStore{newEngine(inner, nil, nil, &policy)}
}

// Tracker returns the store's health tracker (shared or private).
func (d *DeadlineStore) Tracker() *HealthTracker { return d.tracker }

// HealthSnapshot implements HealthReporter.
func (d *DeadlineStore) HealthSnapshot() *HealthStats {
	s := d.tracker.Snapshot()
	return &s
}

// Stop ends the store's executors without closing the inner store: idle
// ones exit now, and one still running an abandoned operation exits when
// that operation returns. A sort's teardown calls it for a deadline layer
// over a store whose lifetime the caller keeps; Close calls it too.
// Idempotent; the store stays usable.
func (d *DeadlineStore) Stop() { d.stop() }
