// The I/O engine: one implementation of retries, deadlines, hedges,
// write/free joins, the disk gate and health sampling, applied to whole
// operations.
//
// An op is a set of transfers of one kind — the blocks of one parallel
// read or write, a batch of frees, or one control call (manifest,
// frontier). Its caller starts it and finishes it, which waits for the
// lot: a sync op does both back to back, an async op hands its caller a
// future in between (async.go).
//
//   - Unbounded sync ops (no deadline) run inline when the store is
//     serial, the op touches one disk, or it is a free batch.
//   - Every other op runs on the engine's long-lived executors: one
//     executor runs every transfer of a serial or free op in turn, one
//     per transfer otherwise. A bounded op's caller also waits on one
//     pooled timer; until an async op's caller waits, the timer handles
//     its own ticks. A tick checks each in-flight transfer's own start:
//     one that has run OpDeadline is abandoned and re-issued on another
//     executor together with the transfers queued behind it (that
//     re-issue is not charged as a failure); one still running at
//     HedgeAfter gets a second leg (reads only); otherwise the timer is
//     re-armed for the next due transfer. A transfer therefore never
//     times out because its op is long, only because it is.
//   - Every failed attempt — an error or an abandonment — goes through
//     one retry rule (decide): the budget, the backoff, the per-disk
//     error budget and ErrDiskOffline, and the late-free rule.
//
// A transfer's state word carries an attempt generation and a state, so
// an abandoned or out-raced leg can never publish into a later attempt:
// legs claim queued transfers, and the first of a read's legs to finish
// wins it.
package pdisk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// opControl is the kind of a control op (manifest, frontier): retried
// like a block transfer, never bounded or gated.
const opControl = opKinds

// Transfer states, the low byte of xfer.st; the attempt generation sits
// above it.
const (
	xQueued    uint64 = iota // waiting for a leg to claim it
	xRunning                 // claimed; in flight once start is set
	xFinishing               // a leg won it and is publishing its result
	xDone                    // result published
	xAbandoned               // the caller abandoned the attempt at its deadline
	stateMask  = 0xff
)

// xfer is one transfer of an op.
type xfer struct {
	kind int
	addr BlockAddr
	blk  StoredBlock  // the write's block in, the read's block out
	call func() error // a control op's body
	name string       // a control op's name in errors

	// Published by the leg that wins the attempt.
	err error
	lat time.Duration
	ok  bool // the attempt itself succeeded: a latency sample
	won bool // a hedge leg delivered the read

	st    atomic.Uint64 // generation<<8 | state
	start atomic.Int64  // in-flight attempt's start on the engine clock; 0 = not yet
	// gated says the attempt entered the disk gate and issued a store
	// call (not a join wait); set by its leg before start.
	gated bool

	// The caller's own.
	attempt     int
	sawDeadline bool
	hedged      bool
	final       bool
	join        *joinedOp // an abandoned write/free's join; guarded by engine.mu
}

// op is one operation: its transfers, the channel its legs and timer wake
// the caller on, and its one timer. Ops are pooled per engine; one that
// ended with a leg still running (abandoned, or a hedge loser) is dropped
// instead, and the late answer lands in it unobserved.
type op struct {
	xs      []xfer
	kind    int
	oneLeg  bool // every transfer runs on one leg, in order
	inline  bool // that leg runs on the caller
	bounded bool
	dirty   bool // a leg was abandoned or out-raced
	reuse   bool

	wake chan struct{} // cap 1: legs and the timer signal without blocking
	legs atomic.Int32  // legs issued and not yet answered
	tick atomic.Bool
	// An async op's ticks are the timer's own until finish takes them
	// over: mu serialises the two, and unattended says whose they are.
	mu         sync.Mutex
	unattended bool

	timer *time.Timer
	after <-chan time.Time
	live  bool // the timer is armed and its tick not yet received
	// The timer is armed for attempt armedGen of transfer armed: its
	// hedge point, or its deadline. armedStart is that attempt's start
	// when the timer was armed, 0 if it was still queued (at the disk
	// gate, or for an executor): only a tick armed for an attempt in
	// flight, from its own start, marks the attempt's event as due.
	armed      int
	armedGen   uint64
	armedStart int64
	armedHedge bool
}

// leg is the unit of work handed to an executor: claim and run the op's
// transfers [first, end). A hedge leg first re-runs first's in-flight
// read of generation gen.
type leg struct {
	o          *op
	first, end int
	hedge      bool
	gen        uint64
}

// joinKey identifies an abandoned write or free for deduplication.
type joinKey struct {
	op   int // opWrite or opFree
	addr BlockAddr
}

// joinedOp is one abandoned write/free still in flight: later attempts of
// the same operation wait on done instead of issuing a duplicate, and the
// leg running it stores err and removes the entry before closing.
type joinedOp struct {
	done chan struct{}
	err  error
}

// engine runs ops over one store under optional retry and deadline
// policies. A System owns one; RetryStore and DeadlineStore are engines
// driven one transfer at a time.
type engine struct {
	inner   Store
	serial  bool
	gate    *DiskGate
	retry   *RetryPolicy    // nil: one attempt, errors surface as they are
	dl      *DeadlinePolicy // nil: no deadline, no hedge, no tracking
	tracker *HealthTracker  // dl's tracker
	hedging bool
	epoch   time.Time

	attempts, retries, giveups atomic.Int64
	// handoffs counts legs handed to executors, ops the ops run per kind
	// (tests pin one against the other).
	handoffs atomic.Int64
	ops      [opControl + 1]atomic.Int64

	// mu guards the retry state, the executor and op free lists and the
	// join entries of abandoned writes/frees.
	mu        sync.Mutex
	rng       *rand.Rand
	diskFails map[int]int64 // cumulative failed attempts per disk
	offline   map[int]bool
	idle      []chan leg // parked executors' inboxes, most recent last
	maxIdle   int        // executors parked at most; 0 = no bound
	free      []*op
	stopped   bool
	pending   map[joinKey]*joinedOp
	// joins mirrors len(pending), so a write or free skips the lookup
	// while nothing is abandoned.
	joins atomic.Int32
}

func newEngine(inner Store, gate *DiskGate, retry *RetryPolicy, deadline *DeadlinePolicy) *engine {
	e := &engine{inner: inner, gate: gate}
	if ss, ok := inner.(SerialStore); ok {
		e.serial = ss.SerialTransfers()
	}
	if retry != nil {
		p := retry.withDefaults()
		e.retry = &p
		e.rng = rand.New(rand.NewSource(retry.Seed))
		e.diskFails = make(map[int]int64)
		e.offline = make(map[int]bool)
	}
	if deadline != nil {
		p := deadline.withDefaults()
		if p.Tracker == nil {
			p.Tracker = NewHealthTracker()
		}
		e.dl, e.tracker = &p, p.Tracker
		e.hedging = p.HedgeAfter > 0 && (p.OpDeadline <= 0 || p.HedgeAfter < p.OpDeadline)
		e.epoch = p.Now()
		e.pending = make(map[joinKey]*joinedOp)
	}
	return e
}

// clock reads the engine clock: nanoseconds since the engine was built,
// plus one so that a started attempt never reads as unstarted.
func (e *engine) clock() int64 { return int64(e.dl.Now().Sub(e.epoch)) + 1 }

// getOp takes an op from the free list, or makes one, sized for n
// transfers of kind.
func (e *engine) getOp(kind, n int) *op {
	e.mu.Lock()
	var o *op
	if k := len(e.free); k > 0 {
		o = e.free[k-1]
		e.free = e.free[:k-1]
	}
	e.mu.Unlock()
	if o == nil {
		o = &op{wake: make(chan struct{}, 1)}
	}
	if cap(o.xs) < n {
		o.xs = make([]xfer, n)
	}
	o.xs = o.xs[:n]
	o.kind = kind
	return o
}

// set fills transfer i of a fresh op.
func (o *op) set(i int, addr BlockAddr, blk StoredBlock) {
	t := &o.xs[i]
	t.kind, t.addr, t.blk = o.kind, addr, blk
	t.st.Store(0)
	t.start.Store(0)
	t.attempt, t.final, t.hedged, t.sawDeadline, t.join = 1, false, false, false, nil
	t.err, t.ok, t.won, t.gated, t.lat = nil, false, false, false, 0
}

// putOp returns an op to the free list if run left it reusable.
func (e *engine) putOp(o *op) {
	if !o.reuse {
		return
	}
	for i := range o.xs {
		o.xs[i].blk, o.xs[i].err, o.xs[i].call = StoredBlock{}, nil, nil
	}
	o.dirty, o.reuse = false, false
	e.mu.Lock()
	e.free = append(e.free, o)
	e.mu.Unlock()
}

// run executes the op and returns the index of its first failed transfer
// in request order, or -1. Every transfer runs either way.
func (e *engine) run(o *op) int {
	e.start(o, false)
	return e.finish(o)
}

// start issues the op: the per-disk budget check, then its legs and, for
// a bounded op, its timer. A sync op that is unbounded and runs on one
// leg runs inline, so it is done when start returns; an async op always
// hands off, so its caller is free until it calls finish.
func (e *engine) start(o *op, async bool) {
	n := len(o.xs)
	e.ops[o.kind].Add(1)
	if e.retry != nil {
		e.attempts.Add(int64(n))
		if e.retry.DiskBudget > 0 {
			for i := range o.xs {
				t := &o.xs[i]
				if t.addr.Disk >= 0 && e.diskDown(t.addr.Disk) {
					e.attempts.Add(-1)
					e.giveups.Add(1)
					t.err = &RetryError{Op: t.opName(), Addr: t.addr, Attempts: 0,
						Err: fmt.Errorf("%w: disk %d", ErrDiskOffline, t.addr.Disk)}
					t.final = true
					t.st.Store(xDone)
				}
			}
		}
	}
	o.bounded = e.dl != nil && o.kind != opControl && (e.dl.OpDeadline > 0 || o.kind == opRead && e.hedging)
	o.oneLeg = e.serial || n == 1 || o.kind == opFree || o.kind == opControl
	o.inline = !async && !o.bounded && o.oneLeg
	if o.oneLeg {
		e.issue(o, leg{o: o, first: 0, end: n})
	} else {
		for i := 0; i < n; i++ {
			e.issue(o, leg{o: o, first: i, end: i + 1})
		}
	}
	if o.bounded {
		o.mu.Lock()
		o.unattended = async
		o.arm(e, 0, 0, o.kind == opRead && e.hedging)
		o.mu.Unlock()
	}
}

// finish waits for a started op — settling results, retrying, and
// handling its timer's deadline and hedge ticks — samples its health,
// and returns the index of its first failed transfer in request order,
// or -1.
func (e *engine) finish(o *op) int {
	if o.unattended {
		o.mu.Lock()
		o.unattended = false
		o.mu.Unlock()
	}
	for e.collect(o) > 0 {
		if o.wait() {
			e.onTick(o)
		}
	}
	quiet := o.disarm()
	if !o.dirty {
		for o.legs.Load() > 0 {
			<-o.wake
		}
	}
	o.reuse = quiet && !o.dirty
	if e.tracker != nil && o.kind != opControl {
		e.tracker.observeOp(o.xs)
	}
	for i := range o.xs {
		if o.xs[i].err != nil {
			return i
		}
	}
	return -1
}

// end is where a leg that starts at transfer i stops.
func (o *op) end(i int) int {
	if o.oneLeg {
		return len(o.xs)
	}
	return i + 1
}

// issue starts a leg: inline if start chose so, otherwise on an executor
// — the most recently parked, starting a new one only when none is idle.
func (e *engine) issue(o *op, l leg) {
	if o.inline {
		e.work(l)
		return
	}
	o.legs.Add(1)
	e.handoffs.Add(1)
	e.mu.Lock()
	if k := len(e.idle); k > 0 {
		in := e.idle[k-1]
		e.idle = e.idle[:k-1]
		e.mu.Unlock()
		in <- l
		return
	}
	e.mu.Unlock()
	go e.execute(make(chan leg, 1), l)
}

// answer tells the op's caller a leg is done.
func (e *engine) answer(o *op) {
	o.legs.Add(-1)
	o.signal()
}

func (o *op) signal() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// execute is an executor's life: run a leg, park, answer, take the next
// leg from its inbox — until the engine stops, or its leg ends a burst
// that left maxIdle executors parked already. It parks before answering,
// so a caller whose next op follows the answer finds it idle rather than
// starting another.
func (e *engine) execute(in chan leg, l leg) {
	for {
		e.work(l)
		e.mu.Lock()
		park := !e.stopped && (e.maxIdle == 0 || len(e.idle) < e.maxIdle)
		if park {
			e.idle = append(e.idle, in)
		}
		e.mu.Unlock()
		e.answer(l.o)
		if !park {
			return
		}
		var ok bool
		if l, ok = <-in; !ok {
			return
		}
	}
}

// stop ends the executors: idle ones exit now, and one still running an
// abandoned transfer exits when that transfer returns. It does not wait
// for that — a transfer can hang indefinitely, and not waiting on one is
// what deadlines are for. The engine stays usable: a later bounded op
// runs on a fresh executor that exits once its leg is done. Idempotent.
func (e *engine) stop() {
	e.mu.Lock()
	e.stopped = true
	for _, in := range e.idle {
		close(in)
	}
	e.idle = nil
	e.mu.Unlock()
}

// work runs one leg: claim each queued transfer in [first, end) and run
// one attempt of it. A write or free whose earlier attempt was abandoned
// and is still in flight waits on that attempt instead of issuing a
// duplicate.
func (e *engine) work(l leg) {
	o, i := l.o, l.first
	if l.hedge {
		t := &o.xs[i]
		blk, err := e.inner.ReadBlock(t.addr)
		e.publish(t, l.gen, blk, err, true, false)
		i++
	}
	for ; i < l.end; i++ {
		t := &o.xs[i]
		s := t.st.Load()
		if s&stateMask != xQueued || !t.st.CompareAndSwap(s, s|xRunning) {
			continue
		}
		var j *joinedOp
		if (t.kind == opWrite || t.kind == opFree) && e.joins.Load() > 0 {
			e.mu.Lock()
			j = e.pending[joinKey{op: t.kind, addr: t.addr}]
			e.mu.Unlock()
		}
		gated := j == nil && t.kind != opControl
		if gated {
			e.gate.enter(t.addr.Disk)
		}
		t.gated = gated
		if e.dl != nil {
			t.start.Store(e.clock())
		}
		var blk StoredBlock
		var err error
		switch {
		case j != nil:
			<-j.done
			err = j.err
		case t.kind == opRead:
			blk, err = e.inner.ReadBlock(t.addr)
		case t.kind == opWrite:
			err = e.inner.WriteBlock(t.addr, t.blk)
		case t.kind == opFree:
			err = e.inner.Free(t.addr)
		default:
			err = t.call()
		}
		e.publish(t, s>>8, blk, err, false, gated)
	}
}

// publish publishes an attempt's result if its leg wins the attempt. A
// leg that loses — its attempt was abandoned, or the other leg of a
// hedged read won — discards its result; an abandoned write or free it
// issued settles the join its caller registered.
func (e *engine) publish(t *xfer, gen uint64, blk StoredBlock, err error, hedge, gated bool) {
	if !t.st.CompareAndSwap(gen<<8|xRunning, gen<<8|xFinishing) {
		if gated && t.kind != opRead {
			e.settle(t, err)
		}
		return
	}
	if t.gated {
		e.gate.exit(t.addr.Disk)
	}
	if t.kind == opRead {
		t.blk = blk
	}
	t.err, t.ok, t.won = err, err == nil, hedge
	if e.dl != nil {
		t.lat = time.Duration(e.clock() - t.start.Load())
	}
	t.st.Store(gen<<8 | xDone)
}

// settle completes an abandoned write/free: the join entry is removed
// under the lock before waiters see the result, so an attempt after
// completion issues fresh instead of subscribing to a closed door.
func (e *engine) settle(t *xfer, err error) {
	key := joinKey{op: t.kind, addr: t.addr}
	e.mu.Lock()
	j := t.join
	if e.pending[key] == j {
		delete(e.pending, key)
		e.joins.Store(int32(len(e.pending)))
	}
	e.mu.Unlock()
	j.err = err
	close(j.done)
}

// collect settles every transfer whose attempt has finished — success,
// or a failure decide retries or gives up on — and returns how many are
// still unsettled. A re-issued inline transfer has run again by the time
// requeue returns, so it is looked at again at once.
func (e *engine) collect(o *op) int {
	remaining := 0
	for i := range o.xs {
		t := &o.xs[i]
		for !t.final {
			if t.st.Load()&stateMask != xDone {
				remaining++
				break
			}
			if t.err != nil {
				delay, retry, err := e.decide(t, t.err)
				if retry {
					e.retry.Sleep(delay)
					e.requeue(o, i)
					continue
				}
				t.err = err
			}
			t.final = true
		}
	}
	return remaining
}

// requeue issues a new attempt of transfer i, on a leg that also picks
// up whatever is queued behind it.
func (e *engine) requeue(o *op, i int) {
	t := &o.xs[i]
	t.attempt++
	t.hedged = false
	t.start.Store(0)
	gen := t.st.Load()>>8 + 1
	t.st.Store(gen << 8)
	e.issue(o, leg{o: o, first: i, end: o.end(i)})
}

// decide is the retry rule, applied to every failed attempt: it returns
// the backoff before a re-attempt, or the error the transfer finally
// fails with (nil for a late free).
func (e *engine) decide(t *xfer, err error) (time.Duration, bool, error) {
	p := e.retry
	if p == nil {
		return 0, false, err
	}
	if t.kind == opFree && t.sawDeadline && errors.Is(err, ErrAbsent) {
		// An abandoned earlier attempt of this free completed late: the
		// block is gone, which is exactly what the caller asked for.
		return 0, false, nil
	}
	if errors.Is(err, ErrDeadline) {
		t.sawDeadline = true
	}
	disk := t.addr.Disk
	if disk >= 0 && e.noteFailure(disk) {
		e.giveups.Add(1)
		return 0, false, &RetryError{Op: t.opName(), Addr: t.addr, Attempts: t.attempt,
			Err: fmt.Errorf("%w: disk %d: %v", ErrDiskOffline, disk, err)}
	}
	if !Retryable(err) || t.attempt >= p.MaxAttempts {
		e.giveups.Add(1)
		if !Retryable(err) && t.attempt == 1 {
			// Terminal on the first try: no retry story to tell.
			return 0, false, err
		}
		return 0, false, &RetryError{Op: t.opName(), Addr: t.addr, Attempts: t.attempt, Err: err}
	}
	e.retries.Add(1)
	e.attempts.Add(1)
	return e.delay(t.attempt), true, nil
}

func (t *xfer) opName() string {
	if t.kind == opControl {
		return t.name
	}
	return opNames[t.kind]
}

// delay returns the jittered backoff before re-attempt n (1-based), a
// pure function of the policy and the seeded rand stream.
func (e *engine) delay(n int) time.Duration {
	p := e.retry
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		e.mu.Lock()
		u := e.rng.Float64()
		e.mu.Unlock()
		d = time.Duration(float64(d) * (1 - p.Jitter*u))
	}
	return d
}

// diskDown reports whether the disk's error budget is exhausted.
func (e *engine) diskDown(disk int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offline[disk]
}

// noteFailure charges one failed attempt against the disk's budget and
// reports whether the disk just went (or already was) offline.
func (e *engine) noteFailure(disk int) bool {
	if e.retry.DiskBudget <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.diskFails[disk]++
	if e.diskFails[disk] >= e.retry.DiskBudget {
		e.offline[disk] = true
	}
	return e.offline[disk]
}

// counts snapshots the retry accounting.
func (e *engine) counts() RetryCounts {
	e.mu.Lock()
	offline := int64(len(e.offline))
	e.mu.Unlock()
	return RetryCounts{
		Attempts:     e.attempts.Load(),
		Retries:      e.retries.Load(),
		GiveUps:      e.giveups.Load(),
		DisksOffline: offline,
	}
}

// onTick handles the op's timer: each in-flight attempt that has run its
// deadline — or is the one the timer was armed for, from its start — is
// abandoned, and an in-flight read past its hedge point gets a second
// leg. A timer armed while its attempt was still queued says nothing
// about how long the attempt has run since it started, so that attempt
// is judged by its own start. The timer is then re-armed for whatever is
// due next.
func (e *engine) onTick(o *op) {
	p := e.dl
	now := e.clock()
	for i := range o.xs {
		t := &o.xs[i]
		s := t.st.Load()
		start := t.start.Load()
		if t.final || s&stateMask != xRunning || start == 0 {
			continue
		}
		armed := i == o.armed && s>>8 == o.armedGen && start == o.armedStart
		ran := time.Duration(now - start)
		switch {
		case p.OpDeadline > 0 && (armed && !o.armedHedge || ran >= p.OpDeadline):
			e.abandon(o, i, s)
		case t.kind == opRead && e.hedging && !t.hedged && (armed && o.armedHedge || ran >= p.HedgeAfter):
			t.hedged = true
			o.dirty = true
			e.tracker.Hedged()
			e.issue(o, leg{o: o, first: i, end: o.end(i), hedge: true, gen: s >> 8})
		}
	}
	e.schedule(o, now)
}

// abandon times out transfer i's in-flight attempt s: the attempt loses
// its gate slot and, for a write or free, leaves a join entry later
// attempts wait on. The timeout is charged to the health ledger and goes
// through the retry rule like any failure.
func (e *engine) abandon(o *op, i int, s uint64) {
	t := &o.xs[i]
	e.mu.Lock()
	if !t.st.CompareAndSwap(s, s&^stateMask|xAbandoned) {
		e.mu.Unlock()
		return // it finished as the deadline fired: it counts
	}
	if t.gated && t.kind != opRead {
		t.join = &joinedOp{done: make(chan struct{})}
		e.pending[joinKey{op: t.kind, addr: t.addr}] = t.join
		e.joins.Store(int32(len(e.pending)))
	}
	e.mu.Unlock()
	if t.gated {
		e.gate.exit(t.addr.Disk)
	}
	o.dirty = true
	e.tracker.Timeout(t.addr.Disk, e.dl.OpDeadline)
	delay, retry, err := e.decide(t, &DeadlineError{Op: opNames[t.kind], Addr: t.addr, Deadline: e.dl.OpDeadline})
	if !retry {
		t.err, t.ok, t.final = err, false, true
		if o.oneLeg && i+1 < len(o.xs) {
			// Whatever is queued behind it must not wait on the stuck leg.
			e.issue(o, leg{o: o, first: i + 1, end: len(o.xs)})
		}
		return
	}
	e.retry.Sleep(delay)
	e.requeue(o, i)
}

// schedule re-arms the op's timer for the earliest due event among its
// in-flight attempts: a hedge point, else a deadline. With none in flight
// but some still to run, it covers the first of those from now.
func (e *engine) schedule(o *op, now int64) {
	p := e.dl
	best, target, hedge := int64(math.MaxInt64), -1, false
	pending := -1
	for i := range o.xs {
		t := &o.xs[i]
		if t.final {
			continue
		}
		s, start := t.st.Load(), t.start.Load()
		if s&stateMask != xRunning || start == 0 {
			if pending < 0 && s&stateMask != xDone {
				pending = i
			}
			continue
		}
		due, h := int64(0), false
		switch {
		case t.kind == opRead && e.hedging && !t.hedged:
			due, h = start+int64(p.HedgeAfter), true
		case p.OpDeadline > 0:
			due = start + int64(p.OpDeadline)
		default:
			continue
		}
		if due < best {
			best, target, hedge = due, i, h
		}
	}
	switch {
	case target >= 0:
		o.arm(e, target, max(time.Duration(best-now), 1), hedge)
	case pending >= 0:
		h := o.kind == opRead && e.hedging
		o.arm(e, pending, 0, h)
	default:
		o.after = nil
	}
}

// arm starts the op's timer for transfer i's next event; a zero d means
// the event's full period (a hedge point, else the deadline).
func (o *op) arm(e *engine, i int, d time.Duration, hedge bool) {
	if d == 0 {
		d = e.dl.OpDeadline
		if hedge {
			d = e.dl.HedgeAfter
		}
	}
	t := &o.xs[i]
	o.armed, o.armedGen, o.armedStart, o.armedHedge = i, t.st.Load()>>8, t.start.Load(), hedge
	o.live = true
	switch {
	case e.dl.After != nil:
		o.after = e.dl.After(d)
	case o.timer == nil:
		o.timer = time.AfterFunc(d, func() { e.fire(o) })
	default:
		o.timer.Reset(d)
	}
}

// fire is the runtime timer's callback. It wakes the op's waiter with the
// tick — or, for an async op nobody waits on yet, handles the tick itself,
// so a stuck transfer gives up its gate slot at its deadline and a
// straggling read is hedged while the caller works on. Holding mu through
// a retry's backoff only delays a finish that would have slept it anyway.
// An injected After's ticks always wait for the waiter.
func (e *engine) fire(o *op) {
	o.mu.Lock()
	if o.unattended {
		o.live = false
		e.onTick(o)
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
	o.tick.Store(true)
	o.signal()
}

// wait blocks until a leg answers or the timer ticks, and reports a tick.
func (o *op) wait() bool {
	if o.after != nil {
		select {
		case <-o.wake:
			return false
		case <-o.after:
			o.after, o.live = nil, false
			return true
		}
	}
	<-o.wake
	if o.tick.Swap(false) {
		o.live = false
		return true
	}
	return false
}

// disarm stops the op's timer and reports whether it is quiet — never
// armed, stopped before firing, or its tick received — so the op may be
// reused. An injected timer is the policy's to collect.
func (o *op) disarm() bool {
	if !o.live {
		return true
	}
	o.live = false
	if o.after != nil {
		o.after = nil
		return true
	}
	return o.timer.Stop()
}

// do1 runs a one-transfer op — the wrappers' unit.
func (e *engine) do1(kind int, addr BlockAddr, b StoredBlock) (StoredBlock, error) {
	o := e.getOp(kind, 1)
	o.set(0, addr, b)
	e.run(o)
	t := &o.xs[0]
	blk, err := t.blk, t.err
	e.putOp(o)
	if err != nil || kind != opRead {
		return StoredBlock{}, err
	}
	return blk, nil
}

// control runs one control call under the retry policy, never bounded:
// manifest and frontier I/O is recovery-path traffic, not the block hot
// path a deadline is for. disk is the budget's disk, -1 for none.
func (e *engine) control(name string, disk int, call func() error) error {
	o := e.getOp(opControl, 1)
	o.set(0, BlockAddr{Disk: disk}, StoredBlock{})
	o.xs[0].call, o.xs[0].name = call, name
	e.run(o)
	err := o.xs[0].err
	e.putOp(o)
	return err
}

// ReadBlock implements Store: one transfer under the engine's policies.
func (e *engine) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	return e.do1(opRead, addr, StoredBlock{})
}

// WriteBlock implements Store.
func (e *engine) WriteBlock(addr BlockAddr, b StoredBlock) error {
	_, err := e.do1(opWrite, addr, b)
	return err
}

// Free implements Store.
func (e *engine) Free(addr BlockAddr) error {
	_, err := e.do1(opFree, addr, StoredBlock{})
	return err
}

// Usage implements Store.
func (e *engine) Usage() Usage { return e.inner.Usage() }

// Close implements Store: it stops the executors and closes the inner
// store. An abandoned leg still running against the closed store fails
// harmlessly into its dropped op.
func (e *engine) Close() error {
	e.stop()
	return e.inner.Close()
}

// SerialTransfers forwards the inner store's scheduling preference.
func (e *engine) SerialTransfers() bool { return e.serial }

// Frontier forwards allocation recovery, retried.
func (e *engine) Frontier(disk int) (int, error) {
	fs, ok := e.inner.(FrontierStore)
	if !ok {
		return 0, nil
	}
	var n int
	err := e.control("frontier", disk, func() (err error) {
		n, err = fs.Frontier(disk)
		return err
	})
	return n, err
}

// SaveManifest forwards ManifestStore, retried: the manifest is exactly
// the write a recovering sort cannot afford to lose to a transient fault.
func (e *engine) SaveManifest(data []byte) error {
	ms, ok := e.inner.(ManifestStore)
	if !ok {
		return fmt.Errorf("%w: store has no manifest support", ErrInvalid)
	}
	return e.control("manifest-save", -1, func() error { return ms.SaveManifest(data) })
}

// LoadManifest forwards ManifestStore, retried.
func (e *engine) LoadManifest() ([]byte, bool, error) {
	ms, ok := e.inner.(ManifestStore)
	if !ok {
		return nil, false, nil
	}
	var data []byte
	var present bool
	err := e.control("manifest-load", -1, func() (err error) {
		data, present, err = ms.LoadManifest()
		return err
	})
	return data, present, err
}

// ClearManifest forwards ManifestStore, retried.
func (e *engine) ClearManifest() error {
	ms, ok := e.inner.(ManifestStore)
	if !ok {
		return nil
	}
	return e.control("manifest-clear", -1, ms.ClearManifest)
}

// Sync forwards a durability flush (FileStore fsyncs; other stores are
// durable or volatile by design).
func (e *engine) Sync() error {
	if s, ok := e.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Blocks forwards BlockLister.
func (e *engine) Blocks() []BlockAddr {
	if bl, ok := e.inner.(BlockLister); ok {
		return bl.Blocks()
	}
	return nil
}
