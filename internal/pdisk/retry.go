package pdisk

import (
	"fmt"
	"time"
)

// RetryPolicy configures the retries of a System (Config.Retry) or a
// RetryStore. The zero value is usable: it means DefaultRetryPolicy().
//
// The backoff schedule is fully deterministic: the delay before the
// n-th re-attempt is BaseDelay·2^(n-1), capped at MaxDelay, then shrunk
// by a jitter fraction drawn from a rand stream derived from Seed. No
// wall clock is consulted anywhere in the decision path — the only
// time-dependent act is the Sleep call itself, and that is injected, so
// tests (and the chaos harness) replace it with a recorder or a no-op
// and the whole retry behaviour becomes a pure function of (Seed,
// failure schedule).
type RetryPolicy struct {
	// MaxAttempts bounds the tries per transfer (first attempt
	// included); 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the backoff before the first re-attempt; doubled for
	// each further one. 0 means DefaultBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomised away, in [0, 1):
	// the effective delay is d·(1 − Jitter·u) with u uniform in [0, 1).
	// Negative disables jitter; 0 means DefaultJitter.
	Jitter float64
	// Seed derives the jitter rand stream.
	Seed int64
	// DiskBudget is the per-disk error budget: once a disk accumulates
	// this many failed attempts, it is declared offline and every later
	// operation on it fails fast with ErrDiskOffline. 0 means no budget
	// (retry forever within MaxAttempts).
	DiskBudget int64
	// Sleep performs the backoff delays; nil means time.Sleep. Injected
	// so the decision path never touches the wall clock (see the
	// timemodel seam: simulated time lives in TimeModel, host time only
	// ever enters through an explicit, replaceable function).
	Sleep func(time.Duration)
}

// Defaults of RetryPolicy's zero fields.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = time.Millisecond
	DefaultMaxDelay    = 100 * time.Millisecond
	DefaultJitter      = 0.5
)

// DefaultRetryPolicy returns the policy used for zero-valued fields: 4
// attempts, 1 ms base delay doubling to a 100 ms cap, 50% jitter, no
// disk budget, real sleeping.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: DefaultMaxAttempts,
		BaseDelay:   DefaultBaseDelay,
		MaxDelay:    DefaultMaxDelay,
		Jitter:      DefaultJitter,
	}
}

// withDefaults resolves zero fields to the default policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts == 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Jitter == 0 {
		p.Jitter = d.Jitter
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RetryError reports a transfer that exhausted its retry budget (or hit
// an offline disk): the operation kind and address, how many attempts
// were made, and the last underlying error. It is itself terminal — a
// nested retry layer will not re-retry an exhausted operation.
type RetryError struct {
	Op       string
	Addr     BlockAddr
	Attempts int
	Err      error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("pdisk: %s %v failed after %d attempt(s): %v",
		e.Op, e.Addr, e.Attempts, e.Err)
}

// Unwrap exposes the last underlying error to errors.Is/As.
func (e *RetryError) Unwrap() error { return e.Err }

// RetryCounts is a RetryStore's accounting: how many transfers were
// re-attempted after a transient failure and how many gave up (retry
// budget exhausted, terminal error after a retry, or offline disk). A
// System keeps the same counters for its own policy in Stats.
type RetryCounts struct {
	// Attempts is the total store calls issued, first tries included.
	Attempts int64
	// Retries is the number of re-attempts after a transient failure.
	Retries int64
	// GiveUps is the number of operations that ultimately failed.
	GiveUps int64
	// DisksOffline is the number of disks whose error budget is
	// exhausted.
	DisksOffline int64
}

// RetryStore wraps a Store and absorbs transient failures: every
// ReadBlock/WriteBlock/Free (and manifest and frontier operation) is
// re-attempted under the policy's deterministic exponential backoff until
// it succeeds, turns out terminal (Retryable reports false — corruption
// and caller bugs are never masked), or the budget runs out. A per-disk
// error budget optionally declares persistently failing disks offline so
// a dying device degrades to fast failures instead of retry storms.
//
// It is the System's I/O engine (see engine.go) driven one transfer at a
// time, for store stacks built by hand; a System takes the same policy
// through Config.Retry instead. The wrapper is transparent to the layers
// above: block contents, operation ordering and the optional Store
// interfaces all pass through.
type RetryStore struct{ *engine }

// NewRetryStore wraps inner under the given policy (zero fields take
// defaults; see DefaultRetryPolicy).
func NewRetryStore(inner Store, policy RetryPolicy) *RetryStore {
	return &RetryStore{newEngine(inner, nil, &policy, nil)}
}

// Counts returns a snapshot of the accumulated retry accounting.
func (r *RetryStore) Counts() RetryCounts { return r.counts() }

// HealthSnapshot forwards the deadline layer's latency tracker when one
// sits below (nil otherwise).
func (r *RetryStore) HealthSnapshot() *HealthStats {
	if hr, ok := r.inner.(HealthReporter); ok {
		return hr.HealthSnapshot()
	}
	return nil
}
