package pdisk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDeadline is the base error of every operation abandoned at its
// per-op deadline. It is classified Retryable — a retry layer above
// re-issues the operation and charges the timeout to the disk's error
// budget, so a persistently stuck disk degrades to ErrDiskOffline
// instead of hanging the merge.
var ErrDeadline = errors.New("pdisk: operation deadline exceeded")

// DeadlineError reports one operation abandoned at its deadline.
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

// DeadlinePolicy configures a DeadlineStore. Like RetryPolicy, every
// time-dependent act goes through an injected function (After, Now), so
// tests drive the deadline and hedge timers deterministically.
type DeadlinePolicy struct {
	// OpDeadline bounds every ReadBlock/WriteBlock/Free: an operation
	// still in flight when the deadline fires returns a DeadlineError
	// (retryable) while the issued transfer continues in the background.
	// 0 means no deadline.
	OpDeadline time.Duration
	// HedgeAfter re-issues a read still in flight after this delay and
	// takes whichever result arrives first — the tail-latency hedge.
	// The losing leg's block is discarded, which the ownership-handoff
	// contract makes safe: blocks are immutable once returned, so an
	// abandoned result holds no aliasing hazard. 0 disables hedging, and
	// so does a delay no shorter than OpDeadline (the deadline would
	// abandon the read before the hedge could help). Reads only: writes
	// and frees are not idempotent-by-timing in the same way and are
	// joined, not raced (see DeadlineStore).
	HedgeAfter time.Duration
	// Tracker, if non-nil, receives the latency/health accounting; nil
	// gives the store a private tracker. sortd shares one tracker across
	// every job's deadline layer.
	Tracker *HealthTracker
	// After is the timer source; nil means a pooled runtime timer,
	// stopped and recycled as soon as the operation completes (deadlines
	// are long relative to ops, so letting every timer live until it
	// fires — as time.After would — accumulates them by the tens of
	// thousands). A call asks for one timer at a time: a hedged read
	// asks for the hedge delay first and, once it fires, for the rest
	// of the deadline.
	After func(time.Duration) <-chan time.Time
	// Now is the clock latency samples are measured with; nil means
	// time.Now.
	Now func() time.Time
}

// withDefaults resolves nil time sources. After stays nil here: the
// store's arm distinguishes an injected source (left to fire on its own
// — tests own its lifecycle) from the pooled runtime timer it stops and
// recycles the moment the operation completes.
func (p DeadlinePolicy) withDefaults() DeadlinePolicy {
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// joinKey identifies an abandoned write or free for deduplication.
type joinKey struct {
	op   int // opWrite or opFree
	addr BlockAddr
}

// joinedOp is one abandoned write/free still in flight: retries of the
// same operation block on done, and the executor running it stores err
// and removes the entry before closing.
type joinedOp struct {
	done chan struct{}
	err  error
}

// dcall is one bounded operation: the request an executor runs, the
// slots its legs answer into, and the call's one timer. Each store
// recycles its calls. One whose legs have all answered and whose timer
// is quiet goes back to the free list; one its caller left with a leg
// still running (a deadline fired, or a hedge won) or a tick still
// landing is dropped instead — the late answer lands in it unobserved
// and the collector takes it.
type dcall struct {
	op   int // opRead, opWrite or opFree
	addr BlockAddr
	blk  StoredBlock // the write's block
	res  [2]legResult
	// done carries the index of each answering leg and the timer's tick;
	// with room for both legs and the tick, no sender ever blocks.
	done chan int
	// state settles the race between a write/free finishing and its
	// caller abandoning it: callRunning moves to callFinished (the
	// executor answers on done) or to callAbandoned (the caller, under
	// the store's lock, registered join, which the executor settles).
	state atomic.Int32
	join  *joinedOp

	// timer is the call's runtime timer, created once and re-armed with
	// Reset; it ticks into done. after replaces it when the policy
	// injects After. ticked says the armed tick was received.
	timer  *time.Timer
	after  <-chan time.Time
	ticked bool
}

// legResult is one leg's outcome.
type legResult struct {
	blk StoredBlock
	err error
}

// dcall states.
const (
	callRunning int32 = iota
	callFinished
	callAbandoned
)

// tick is what a call's timer sends on done; legs send 0 (the primary)
// and 1 (a read's hedge).
const tick = 2

// leg is the unit of work handed to an executor.
type leg struct {
	c   *dcall
	idx int
}

// getCall takes a call from the store's free list, or makes one.
func (d *DeadlineStore) getCall(op int, addr BlockAddr) *dcall {
	d.mu.Lock()
	var c *dcall
	if n := len(d.free); n > 0 {
		c = d.free[n-1]
		d.free = d.free[:n-1]
	}
	d.mu.Unlock()
	if c == nil {
		c = &dcall{done: make(chan int, 3)}
	}
	c.op, c.addr = op, addr
	return c
}

// putCall returns a call to the free list once its legs have all
// answered and its timer is quiet.
func (d *DeadlineStore) putCall(c *dcall) {
	c.blk = StoredBlock{}
	c.res = [2]legResult{}
	c.state.Store(callRunning)
	c.join = nil
	d.mu.Lock()
	d.free = append(d.free, c)
	d.mu.Unlock()
}

// fire is the runtime timer's callback.
func (c *dcall) fire() { c.done <- tick }

// wait blocks for the call's next event: an answering leg's index, or
// tick.
func (c *dcall) wait() int {
	if c.after == nil {
		return <-c.done
	}
	select {
	case i := <-c.done:
		return i
	case <-c.after:
		return tick
	}
}

// DeadlineStore wraps a Store and bounds every block operation with a
// per-op deadline, hedges straggling reads, and tracks per-disk latency:
//
//   - Every bounded operation is handed to an executor, a long-lived
//     goroutine of the store that runs the inner call and answers into
//     the caller's pooled call record, while the caller waits on that
//     record for the answer or the tick of its one pooled timer. A new
//     executor starts only when none is idle — every existing one is
//     running an op (possibly a stuck one), or a hedge leg needs a
//     second — so a fault-free op costs one handoff each way and
//     allocates nothing.
//   - ReadBlock races up to two legs of the same read (the second issued
//     after HedgeAfter) and returns the first success; the deadline
//     abandons both. A lost leg's result is discarded — safe under the
//     ownership-handoff contract (returned blocks are immutable).
//   - WriteBlock and Free are joined, not raced: an attempt abandoned at
//     its deadline registers a join entry, and a retry of the same
//     operation while it is still in flight waits on it (up to a fresh
//     deadline) instead of issuing a duplicate, so a straggling write
//     never runs concurrently with its own retry. The abandoned attempt
//     removes its entry when it completes; writes are idempotent
//     (retries carry identical bytes), and a free completing late makes
//     the retry's ErrAbsent a success — RetryStore knows this (see its
//     free handling).
//   - Deadline errors are Retryable, so the retry layer above re-issues
//     them and charges the disk's error budget: a stuck disk trips
//     ErrDiskOffline instead of hanging the sort.
//
// Stop (or Close) ends the executors. Manifest, frontier and the other
// optional capabilities forward without deadlines — they are
// recovery-path traffic, not the per-block hot path the straggler model
// concerns.
type DeadlineStore struct {
	inner  Store
	policy DeadlinePolicy

	// mu guards the executor and call free lists — a warm store reuses
	// both, so a bounded op allocates nothing — and the join entries of
	// abandoned writes/frees.
	mu      sync.Mutex
	idle    []chan leg // parked executors' inboxes, most recent last
	free    []*dcall
	stopped bool
	pending map[joinKey]*joinedOp
	// joins mirrors len(pending), so a write or free skips the join
	// lookup while nothing is abandoned.
	joins atomic.Int32
}

// NewDeadlineStore wraps inner under the given policy. A policy with
// neither OpDeadline nor HedgeAfter still tracks latency, inline.
func NewDeadlineStore(inner Store, policy DeadlinePolicy) *DeadlineStore {
	policy = policy.withDefaults()
	if policy.Tracker == nil {
		policy.Tracker = NewHealthTracker()
	}
	return &DeadlineStore{
		inner:   inner,
		policy:  policy,
		pending: make(map[joinKey]*joinedOp),
	}
}

// Tracker returns the store's health tracker (shared or private).
func (d *DeadlineStore) Tracker() *HealthTracker { return d.policy.Tracker }

// HealthSnapshot implements HealthReporter.
func (d *DeadlineStore) HealthSnapshot() *HealthStats {
	s := d.policy.Tracker.Snapshot()
	return &s
}

// Stop ends the store's executors without closing the inner store: idle
// ones exit now, and one still running an abandoned operation exits
// when that operation returns. Stop does not wait for that: a transfer
// can hang indefinitely, and not waiting on one is what the layer is
// for. A sort's teardown calls it for a deadline layer over a store
// whose lifetime the caller keeps; Close calls it too. Idempotent. The
// store stays usable — an operation after Stop runs on a fresh executor
// that exits once the operation is done.
func (d *DeadlineStore) Stop() {
	d.mu.Lock()
	d.stopped = true
	for _, in := range d.idle {
		close(in)
	}
	d.idle = nil
	d.mu.Unlock()
}

// issue hands one leg to the most recently parked executor, starting a
// new one only when none is idle.
func (d *DeadlineStore) issue(l leg) {
	d.mu.Lock()
	if n := len(d.idle); n > 0 {
		in := d.idle[n-1]
		d.idle = d.idle[:n-1]
		d.mu.Unlock()
		in <- l
		return
	}
	d.mu.Unlock()
	go d.execute(make(chan leg, 1), l)
}

// execute is an executor's life: run a leg, park, answer, take the next
// leg from its inbox in — until the store stops. It parks before
// answering, so a caller whose next op follows the answer finds it idle
// rather than starting another.
func (d *DeadlineStore) execute(in chan leg, l leg) {
	for {
		c := l.c
		r := &c.res[l.idx]
		switch c.op {
		case opRead:
			r.blk, r.err = d.inner.ReadBlock(c.addr)
		case opWrite:
			r.err = d.inner.WriteBlock(c.addr, c.blk)
		default:
			r.err = d.inner.Free(c.addr)
		}
		d.mu.Lock()
		stopped := d.stopped
		if !stopped {
			d.idle = append(d.idle, in)
		}
		d.mu.Unlock()
		// Once answered, the call is the caller's again (it may already
		// be recycled): nothing below touches c.
		if c.op != opRead && !c.state.CompareAndSwap(callRunning, callFinished) {
			d.settle(c, r.err)
		} else {
			c.done <- l.idx
		}
		if stopped {
			return
		}
		var ok bool
		if l, ok = <-in; !ok {
			return
		}
	}
}

// settle completes an abandoned write/free: the join entry its caller
// registered is removed under the lock before waiters see the result,
// so a retry after completion issues fresh instead of subscribing to a
// closed door.
func (d *DeadlineStore) settle(c *dcall, err error) {
	key := joinKey{op: c.op, addr: c.addr}
	d.mu.Lock()
	j := c.join
	if d.pending[key] == j {
		delete(d.pending, key)
		d.joins.Store(int32(len(d.pending)))
	}
	d.mu.Unlock()
	j.err = err
	close(j.done)
}

// arm starts the call's timer for dur.
func (d *DeadlineStore) arm(c *dcall, dur time.Duration) {
	c.ticked = false
	switch {
	case d.policy.After != nil:
		c.after = d.policy.After(dur)
	case c.timer == nil:
		c.timer = time.AfterFunc(dur, c.fire)
	default:
		c.timer.Reset(dur)
	}
}

// disarm stops the call's timer and reports whether it is quiet — it
// was stopped before firing, or its tick was received — so the call may
// be recycled. A timer that fired unobserved (its tick lost the race to
// a result) will still land a tick on done, so its call is dropped.
func (c *dcall) disarm() bool {
	c.after = nil
	return c.timer == nil || c.ticked || c.timer.Stop()
}

// timeout charges one abandoned operation to the health ledger and
// returns its retryable error.
func (d *DeadlineStore) timeout(op int, addr BlockAddr) error {
	d.policy.Tracker.Timeout(addr.Disk, d.policy.OpDeadline)
	return &DeadlineError{Op: opNames[op], Addr: addr, Deadline: d.policy.OpDeadline}
}

// ReadBlock implements Store with hedging and a deadline.
func (d *DeadlineStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	p := &d.policy
	if p.OpDeadline <= 0 && p.HedgeAfter <= 0 {
		start := p.Now()
		blk, err := d.inner.ReadBlock(addr)
		if err == nil {
			p.Tracker.Observe(addr.Disk, p.Now().Sub(start))
		}
		return blk, err
	}
	// One timer per call: armed for the hedge when the hedge comes
	// first, then re-armed for what is left of the deadline.
	hedging := p.HedgeAfter > 0 && (p.OpDeadline <= 0 || p.HedgeAfter < p.OpDeadline)
	c := d.getCall(opRead, addr)
	start := p.Now()
	d.issue(leg{c: c, idx: 0})
	inFlight := 1
	if hedging {
		d.arm(c, p.HedgeAfter)
	} else {
		d.arm(c, p.OpDeadline)
	}
	var firstErr error
	for {
		i := c.wait()
		if i == tick {
			c.ticked = true
			if !hedging {
				return StoredBlock{}, d.timeout(opRead, addr)
			}
			hedging = false
			p.Tracker.Hedged()
			d.issue(leg{c: c, idx: 1})
			inFlight++
			if p.OpDeadline > 0 {
				d.arm(c, p.OpDeadline-p.HedgeAfter)
			} else {
				c.after = nil // no deadline: nothing left to time
			}
			continue
		}
		inFlight--
		r := c.res[i]
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.err != nil && inFlight > 0 {
			continue // the other leg may still deliver
		}
		if c.disarm() && inFlight == 0 {
			d.putCall(c)
		}
		if r.err != nil {
			// Every issued leg failed; surface the first error (the
			// primary's, unless the hedge leg failed first).
			return StoredBlock{}, firstErr
		}
		p.Tracker.Observe(addr.Disk, p.Now().Sub(start))
		if i == 1 {
			p.Tracker.HedgeWon()
		}
		return r.blk, nil
	}
}

// WriteBlock implements Store with a deadline; see bounded.
func (d *DeadlineStore) WriteBlock(addr BlockAddr, b StoredBlock) error {
	return d.bounded(opWrite, addr, b)
}

// Free implements Store with a deadline; see bounded.
func (d *DeadlineStore) Free(addr BlockAddr) error {
	return d.bounded(opFree, addr, StoredBlock{})
}

// bounded runs one write/free under the deadline with join semantics: if
// an earlier attempt of the same operation was abandoned and is still in
// flight, the call waits on that attempt instead of issuing a duplicate.
// Only abandonment registers a join entry — the fault-free path takes no
// lock for it — and the executor removes it when the attempt completes,
// so a new call after completion issues fresh.
func (d *DeadlineStore) bounded(op int, addr BlockAddr, b StoredBlock) error {
	p := &d.policy
	if p.OpDeadline <= 0 {
		start := p.Now()
		var err error
		if op == opWrite {
			err = d.inner.WriteBlock(addr, b)
		} else {
			err = d.inner.Free(addr)
		}
		if err == nil {
			p.Tracker.Observe(addr.Disk, p.Now().Sub(start))
		}
		return err
	}
	key := joinKey{op: op, addr: addr}
	start := p.Now()
	if d.joins.Load() > 0 {
		d.mu.Lock()
		j := d.pending[key]
		d.mu.Unlock()
		if j != nil {
			return d.await(j, op, addr, start)
		}
	}
	c := d.getCall(op, addr)
	c.blk = b
	d.issue(leg{c: c, idx: 0})
	d.arm(c, p.OpDeadline)
	if c.wait() == tick {
		c.ticked = true
		d.mu.Lock()
		if c.state.CompareAndSwap(callRunning, callAbandoned) {
			c.join = &joinedOp{done: make(chan struct{})}
			d.pending[key] = c.join
			d.joins.Store(int32(len(d.pending)))
			d.mu.Unlock()
			return d.timeout(op, addr)
		}
		d.mu.Unlock()
		// The attempt finished as the deadline fired: its answer is on
		// its way, and it counts.
		<-c.done
	}
	err := c.res[0].err
	if c.disarm() {
		d.putCall(c)
	}
	if err == nil {
		p.Tracker.Observe(addr.Disk, p.Now().Sub(start))
	}
	return err
}

// await waits, up to a fresh deadline, on an abandoned attempt of the
// same write/free and inherits its result. Its call issues no leg: it
// only lends its timer.
func (d *DeadlineStore) await(j *joinedOp, op int, addr BlockAddr, start time.Time) error {
	c := d.getCall(op, addr)
	d.arm(c, d.policy.OpDeadline)
	select {
	case <-j.done:
		if c.disarm() {
			d.putCall(c)
		}
		if j.err == nil {
			d.policy.Tracker.Observe(addr.Disk, d.policy.Now().Sub(start))
		}
		return j.err
	case <-c.done:
	case <-c.after:
	}
	c.ticked = true
	if c.disarm() {
		d.putCall(c)
	}
	return d.timeout(op, addr)
}

// Usage implements Store.
func (d *DeadlineStore) Usage() Usage { return d.inner.Usage() }

// Close implements Store: it stops the executors and closes the inner
// store. An abandoned leg still running against the closed inner store
// fails harmlessly into its dropped call.
func (d *DeadlineStore) Close() error {
	d.Stop()
	return d.inner.Close()
}

// SerialTransfers forwards the wrapped store's scheduling preference.
func (d *DeadlineStore) SerialTransfers() bool {
	if ss, ok := d.inner.(SerialStore); ok {
		return ss.SerialTransfers()
	}
	return false
}

// Frontier forwards allocation recovery (no deadline: recovery path).
func (d *DeadlineStore) Frontier(disk int) (int, error) {
	if fs, ok := d.inner.(FrontierStore); ok {
		return fs.Frontier(disk)
	}
	return 0, nil
}

// SaveManifest forwards ManifestStore (no deadline: checkpoint path).
func (d *DeadlineStore) SaveManifest(data []byte) error {
	ms, ok := d.inner.(ManifestStore)
	if !ok {
		return fmt.Errorf("%w: store has no manifest support", ErrInvalid)
	}
	return ms.SaveManifest(data)
}

// LoadManifest forwards ManifestStore.
func (d *DeadlineStore) LoadManifest() ([]byte, bool, error) {
	if ms, ok := d.inner.(ManifestStore); ok {
		return ms.LoadManifest()
	}
	return nil, false, nil
}

// ClearManifest forwards ManifestStore.
func (d *DeadlineStore) ClearManifest() error {
	if ms, ok := d.inner.(ManifestStore); ok {
		return ms.ClearManifest()
	}
	return nil
}

// Sync forwards a durability flush.
func (d *DeadlineStore) Sync() error {
	if s, ok := d.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Blocks forwards BlockLister.
func (d *DeadlineStore) Blocks() []BlockAddr {
	if bl, ok := d.inner.(BlockLister); ok {
		return bl.Blocks()
	}
	return nil
}
