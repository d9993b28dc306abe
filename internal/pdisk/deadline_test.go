package pdisk

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"srmsort/internal/record"
)

// stuckStore wraps a MemStore and parks a configured number of calls per
// operation kind on a release channel, simulating a device whose
// transfers hang. Calls are counted so tests can assert how many ops the
// layers above actually issued, and parked calls are counted so a test
// can wait until the call it means to strand is really stranded.
type stuckStore struct {
	*MemStore

	mu      sync.Mutex
	park    map[string]int // remaining calls to park, per op kind
	calls   map[string]int
	parked  map[string]int
	release chan struct{}
}

func newStuckStore(park map[string]int) *stuckStore {
	return &stuckStore{
		MemStore: NewMemStore(),
		park:     park,
		calls:    make(map[string]int),
		parked:   make(map[string]int),
		release:  make(chan struct{}),
	}
}

// enter counts the call and parks it if the schedule says so.
func (s *stuckStore) enter(op string) {
	s.mu.Lock()
	s.calls[op]++
	parked := s.park[op] > 0
	if parked {
		s.park[op]--
		s.parked[op]++
	}
	s.mu.Unlock()
	if parked {
		<-s.release
	}
}

func (s *stuckStore) callCount(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[op]
}

// waitParked blocks until at least n calls of the op kind are parked.
func (s *stuckStore) waitParked(t *testing.T, op string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		got := s.parked[op]
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d %s calls parked", got, n, op)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *stuckStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	s.enter("read")
	return s.MemStore.ReadBlock(addr)
}

func (s *stuckStore) WriteBlock(addr BlockAddr, b StoredBlock) error {
	s.enter("write")
	return s.MemStore.WriteBlock(addr, b)
}

func (s *stuckStore) Free(addr BlockAddr) error {
	s.enter("free")
	return s.MemStore.Free(addr)
}

// timerCtl is a deterministic timer source and the clock that goes with
// it: every After call yields a fresh buffered channel the test fires
// explicitly, and Now stands still until a timer fires, which moves it
// to that timer's due time. Deadline and hedge expiry happen exactly
// when the test says — never from the wall clock — and a transfer that
// started before a timer was due has, by Now, run for as long as that.
type timerCtl struct {
	mu     sync.Mutex
	timers []chan time.Time
	due    []time.Duration
	fired  []bool
	now    time.Duration
	reads  int // Now calls so far
}

// ctlEpoch is the instant timerCtl's clock starts at.
var ctlEpoch = time.Unix(1<<30, 0)

func (c *timerCtl) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.timers = append(c.timers, ch)
	c.due = append(c.due, c.now+d)
	c.fired = append(c.fired, false)
	c.mu.Unlock()
	return ch
}

// Now is the policy clock: it moves only when a timer fires or sleep
// advances it.
func (c *timerCtl) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	return ctlEpoch.Add(c.now)
}

// clockReads returns how many times Now has been called so far.
func (c *timerCtl) clockReads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// waitJoined blocks until the clock has been read more than n times,
// n being clockReads before a write or free was retried while its
// abandoned attempt was still in flight. The engine reads the clock
// when a leg starts an attempt, after the leg has looked for an
// in-flight attempt to join, and nowhere else until an attempt finishes
// or a timer fires; so once this returns, the retry has made its choice
// and releasing the stuck attempt can no longer change it.
func (c *timerCtl) waitJoined(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.clockReads() <= n {
		if time.Now().After(deadline) {
			t.Fatal("the retry never started its attempt")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// fire waits for the i-th registered timer (in After-call order) to
// exist, moves the clock to its due time, and expires it.
func (c *timerCtl) fire(t *testing.T, i int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		if len(c.timers) > i {
			ch := c.timers[i]
			c.now = max(c.now, c.due[i])
			c.fired[i] = true
			c.mu.Unlock()
			ch <- time.Time{}
			return
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timer %d never registered", i)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// sleep is a FaultConfig.Sleep on the policy clock: it moves the clock
// on by d and expires every timer that has come due, so a store's
// latency and the deadlines that judge it share one clock and no test
// outcome hangs on how promptly the host wakes a sleeper. After a tick
// it waits (up to a second) for the engine to arm its next timer, so
// the tick is handled while the sleeping transfer is still in flight.
func (c *timerCtl) sleep(d time.Duration) {
	c.mu.Lock()
	c.now += d
	var due []chan time.Time
	for i, ch := range c.timers {
		if !c.fired[i] && c.due[i] <= c.now {
			c.fired[i] = true
			due = append(due, ch)
		}
	}
	armed := len(c.timers)
	c.mu.Unlock()
	for _, ch := range due {
		ch <- time.Time{}
	}
	for limit := time.Now().Add(time.Second); len(due) > 0 && c.count() == armed && time.Now().Before(limit); {
		time.Sleep(50 * time.Microsecond)
	}
}

// count returns how many timers have been registered so far.
func (c *timerCtl) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// waitTimers blocks until at least n timers are registered.
func (c *timerCtl) waitTimers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d timers registered", c.count(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// A read abandoned at its deadline must surface a DeadlineError that is
// retryable — the whole point of the deadline is handing the op to the
// retry layer — and must be charged to the health tracker.
func TestDeadlineTimeoutIsRetryable(t *testing.T) {
	inner := newStuckStore(map[string]int{"read": 1})
	defer close(inner.release)
	if err := inner.MemStore.WriteBlock(BlockAddr{Disk: 2, Index: 0}, blk(1)); err != nil {
		t.Fatal(err)
	}
	ctl := &timerCtl{}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		OpDeadline: 50 * time.Millisecond,
		After:      ctl.After,
		Now:        ctl.Now,
	})
	errc := make(chan error, 1)
	go func() {
		_, err := ds.ReadBlock(BlockAddr{Disk: 2, Index: 0})
		errc <- err
	}()
	// A tick abandons only a transfer in flight: fire once it is parked.
	inner.waitParked(t, "read", 1)
	ctl.fire(t, 0)
	err := <-errc
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	if derr.Op != "read" || derr.Deadline != 50*time.Millisecond {
		t.Fatalf("bad DeadlineError: %+v", derr)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("not ErrDeadline: %v", err)
	}
	if !Retryable(err) {
		t.Fatalf("deadline error must be retryable: %v", err)
	}
	snap := ds.HealthSnapshot()
	if snap.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", snap.Timeouts)
	}
	if len(snap.PerDisk) != 1 || snap.PerDisk[0].Disk != 2 || snap.PerDisk[0].Timeouts != 1 {
		t.Fatalf("per-disk health = %+v", snap.PerDisk)
	}
}

// A hedged read must return the hedge leg's result when the primary is
// stuck, and account the hedge issue and win.
func TestDeadlineHedgeWins(t *testing.T) {
	inner := newStuckStore(map[string]int{"read": 1})
	defer close(inner.release)
	addr := BlockAddr{Disk: 0, Index: 0}
	if err := inner.MemStore.WriteBlock(addr, blk(7)); err != nil {
		t.Fatal(err)
	}
	ctl := &timerCtl{}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		HedgeAfter: 5 * time.Millisecond,
		After:      ctl.After,
		Now:        ctl.Now,
	})
	type res struct {
		blk StoredBlock
		err error
	}
	resc := make(chan res, 1)
	go func() {
		b, err := ds.ReadBlock(addr)
		resc <- res{b, err}
	}()
	// Fire the hedge timer only once the primary is parked, so the hedge
	// leg is the one that runs — not one that overtook the primary to
	// the parking spot.
	inner.waitParked(t, "read", 1)
	ctl.fire(t, 0)
	r := <-resc
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.blk.Records) != 1 || r.blk.Records[0].Key != 7 {
		t.Fatalf("hedge returned wrong block: %+v", r.blk)
	}
	snap := ds.HealthSnapshot()
	if snap.HedgedReads != 1 || snap.HedgeWins != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1", snap.HedgedReads, snap.HedgeWins)
	}
	if snap.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0", snap.Timeouts)
	}
	if inner.callCount("read") != 2 {
		t.Fatalf("inner reads = %d, want 2 (primary + hedge)", inner.callCount("read"))
	}
}

// A hedged read with a deadline holds one timer at a time: the hedge
// delay first, then the rest of the deadline, which still abandons the
// read when both legs hang.
func TestDeadlineHedgeThenDeadline(t *testing.T) {
	inner := newStuckStore(map[string]int{"read": 2})
	defer close(inner.release)
	addr := BlockAddr{Disk: 3, Index: 0}
	if err := inner.MemStore.WriteBlock(addr, blk(8)); err != nil {
		t.Fatal(err)
	}
	ctl := &timerCtl{}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		OpDeadline: 50 * time.Millisecond,
		HedgeAfter: 5 * time.Millisecond,
		After:      ctl.After,
		Now:        ctl.Now,
	})
	errc := make(chan error, 1)
	go func() {
		_, err := ds.ReadBlock(addr)
		errc <- err
	}()
	inner.waitParked(t, "read", 1)
	ctl.waitTimers(t, 1)
	if n := ctl.count(); n != 1 {
		t.Fatalf("%d timers armed before the hedge, want 1", n)
	}
	ctl.fire(t, 0) // the hedge: a second leg, which hangs too
	inner.waitParked(t, "read", 2)
	ctl.fire(t, 1) // the rest of the deadline
	err := <-errc
	var derr *DeadlineError
	if !errors.As(err, &derr) || derr.Op != "read" || derr.Deadline != 50*time.Millisecond {
		t.Fatalf("want a read DeadlineError, got %v", err)
	}
	if n := ctl.count(); n != 2 {
		t.Fatalf("%d timers armed in all, want 2 (hedge, then the rest of the deadline)", n)
	}
	snap := ds.HealthSnapshot()
	if snap.HedgedReads != 1 || snap.HedgeWins != 0 || snap.Timeouts != 1 {
		t.Fatalf("hedged=%d wins=%d timeouts=%d, want 1/0/1", snap.HedgedReads, snap.HedgeWins, snap.Timeouts)
	}
}

// Deadline timeouts must charge the per-disk error budget: a disk whose
// transfers keep hanging goes offline instead of hanging the sort.
func TestDeadlineChargesRetryBudget(t *testing.T) {
	inner := newStuckStore(map[string]int{"read": 100}) // every read hangs
	defer close(inner.release)
	addr := BlockAddr{Disk: 1, Index: 0}
	if err := inner.MemStore.WriteBlock(addr, blk(3)); err != nil {
		t.Fatal(err)
	}
	ctl := &timerCtl{}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		OpDeadline: 20 * time.Millisecond,
		After:      ctl.After,
		Now:        ctl.Now,
	})
	rs := NewRetryStore(ds, RetryPolicy{
		MaxAttempts: 5,
		DiskBudget:  2,
		Sleep:       func(time.Duration) {},
	})
	errc := make(chan error, 1)
	go func() {
		_, err := rs.ReadBlock(addr)
		errc <- err
	}()
	inner.waitParked(t, "read", 1)
	ctl.fire(t, 0) // attempt 1 times out
	inner.waitParked(t, "read", 2)
	ctl.fire(t, 1) // attempt 2 times out -> budget exhausted
	err := <-errc
	if !errors.Is(err, ErrDiskOffline) {
		t.Fatalf("want ErrDiskOffline, got %v", err)
	}
	counts := rs.Counts()
	if counts.DisksOffline != 1 {
		t.Fatalf("DisksOffline = %d, want 1", counts.DisksOffline)
	}
	if counts.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", counts.Attempts)
	}
	if got := ds.HealthSnapshot().Timeouts; got != 2 {
		t.Fatalf("Timeouts = %d, want 2", got)
	}
	// The disk is offline: later operations fail fast, issuing nothing.
	before := inner.callCount("read")
	if _, err := rs.ReadBlock(addr); !errors.Is(err, ErrDiskOffline) {
		t.Fatalf("offline disk must fail fast, got %v", err)
	}
	if inner.callCount("read") != before {
		t.Fatal("offline disk still issued inner reads")
	}
	// The retry wrapper forwards the health snapshot up the stack.
	if snap := rs.HealthSnapshot(); snap == nil || snap.Timeouts != 2 {
		t.Fatalf("RetryStore.HealthSnapshot = %+v", snap)
	}
}

// A free abandoned at its deadline may still complete in the background.
// The retry's re-issued free then sees ErrAbsent — which the retry layer
// must treat as success, because the block is gone exactly as requested.
func TestDeadlineLateFreeCompletes(t *testing.T) {
	inner := newStuckStore(map[string]int{"free": 1})
	addr := BlockAddr{Disk: 0, Index: 0}
	if err := inner.MemStore.WriteBlock(addr, blk(9)); err != nil {
		t.Fatal(err)
	}
	ctl := &timerCtl{}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		OpDeadline: 20 * time.Millisecond,
		After:      ctl.After,
		Now:        ctl.Now,
	})
	var once sync.Once
	rs := NewRetryStore(ds, RetryPolicy{
		MaxAttempts: 4,
		Sleep: func(time.Duration) {
			// Between attempts, let the abandoned free land: the retry's
			// next attempt either joins it or re-issues into ErrAbsent.
			once.Do(func() { close(inner.release) })
		},
	})
	errc := make(chan error, 1)
	go func() { errc <- rs.Free(addr) }()
	inner.waitParked(t, "free", 1)
	ctl.fire(t, 0) // attempt 1 abandoned at its deadline
	if err := <-errc; err != nil {
		t.Fatalf("late-completing free must read as success, got %v", err)
	}
	// The block really is gone.
	if _, err := inner.MemStore.ReadBlock(addr); !errors.Is(err, ErrAbsent) {
		t.Fatalf("block still present after free: %v", err)
	}
}

// A retry of a write whose earlier attempt is still in flight must join
// that attempt, not issue a concurrent duplicate.
func TestDeadlineJoinedWriteSingleIssue(t *testing.T) {
	inner := newStuckStore(map[string]int{"write": 1})
	addr := BlockAddr{Disk: 0, Index: 0}
	ctl := &timerCtl{}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		OpDeadline: 20 * time.Millisecond,
		After:      ctl.After,
		Now:        ctl.Now,
	})
	errc := make(chan error, 1)
	go func() { errc <- ds.WriteBlock(addr, blk(4)) }()
	inner.waitParked(t, "write", 1)
	ctl.fire(t, 0) // first attempt abandoned, transfer still in flight
	if err := <-errc; !errors.Is(err, ErrDeadline) {
		t.Fatalf("want deadline error, got %v", err)
	}
	// Retry while the first transfer is still parked: must join, not
	// re-issue.
	reads := ctl.clockReads()
	errc2 := make(chan error, 1)
	go func() { errc2 <- ds.WriteBlock(addr, blk(4)) }()
	ctl.waitJoined(t, reads)
	if got := inner.callCount("write"); got != 1 {
		t.Fatalf("inner writes = %d, want 1 (joined, not duplicated)", got)
	}
	close(inner.release) // the parked transfer lands
	if err := <-errc2; err != nil {
		t.Fatalf("joined write must inherit the landed result, got %v", err)
	}
	if got := inner.callCount("write"); got != 1 {
		t.Fatalf("inner writes = %d after join, want 1", got)
	}
	// The pending entry is gone: a fresh write issues anew.
	if err := ds.WriteBlock(addr, blk(5)); err != nil {
		t.Fatal(err)
	}
	if got := inner.callCount("write"); got != 2 {
		t.Fatalf("inner writes = %d, want 2 (fresh issue)", got)
	}
	// The landed block is readable through the store.
	b, err := ds.ReadBlock(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 1 || b.Records[0].Key != 5 {
		t.Fatalf("read back %+v", b)
	}
}

// Without OpDeadline or HedgeAfter the store is a pure latency tracker:
// operations pass straight through and per-disk EWMA/p99 accumulate.
func TestDeadlineTrackerOnly(t *testing.T) {
	ds := NewDeadlineStore(NewMemStore(), DeadlinePolicy{})
	for i := 0; i < 4; i++ {
		addr := BlockAddr{Disk: i % 2, Index: i / 2}
		if err := ds.WriteBlock(addr, blk(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ReadBlock(addr); err != nil {
			t.Fatal(err)
		}
	}
	snap := ds.HealthSnapshot()
	if len(snap.PerDisk) != 2 {
		t.Fatalf("PerDisk = %+v", snap.PerDisk)
	}
	var ops int64
	for _, d := range snap.PerDisk {
		ops += d.Ops
		if d.Timeouts != 0 {
			t.Fatalf("unexpected timeout on disk %d", d.Disk)
		}
	}
	if ops != 8 {
		t.Fatalf("tracked ops = %d, want 8", ops)
	}
}

// A fault-free bounded op, with both knobs set, is one handoff to a
// parked executor and allocates nothing: the call record and its timer
// come from the store's free list and the executor outlives the op.
// (Spawning a goroutine with a fresh channel and timers per op cost ~8
// objects.)
func TestDeadlineOpsAllocateNothing(t *testing.T) {
	ds := NewDeadlineStore(NewMemStore(), DeadlinePolicy{
		OpDeadline: time.Minute,
		HedgeAfter: 30 * time.Second,
	})
	defer ds.Close()
	addr := BlockAddr{Disk: 1, Index: 7}
	b := blk(3)
	ops := func() {
		if err := ds.WriteBlock(addr, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.ReadBlock(addr); err != nil {
			t.Fatal(err)
		}
		if err := ds.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	ops() // the first executor, call and timer
	if got := testing.AllocsPerRun(200, ops); got != 0 {
		t.Fatalf("bounded write+read+free allocates %.1f objects, want 0", got)
	}
}

// writeLog wraps a store and checks the join guarantee from below: a
// write never starts while an earlier write of the same address is still
// running.
type writeLog struct {
	Store

	mu       sync.Mutex
	inflight map[BlockAddr]bool
	writes   int
	overlaps int
}

func (s *writeLog) WriteBlock(addr BlockAddr, b StoredBlock) error {
	s.mu.Lock()
	s.writes++
	if s.inflight[addr] {
		s.overlaps++
	}
	s.inflight[addr] = true
	s.mu.Unlock()
	err := s.Store.WriteBlock(addr, b)
	s.mu.Lock()
	delete(s.inflight, addr)
	s.mu.Unlock()
	return err
}

// untilNoDeadline re-issues op while it fails with a deadline error, the
// way a retry layer would, and returns how many attempts it took.
func untilNoDeadline(op func() error) (int, error) {
	for n := 1; ; n++ {
		err := op()
		if !errors.Is(err, ErrDeadline) || n == 10_000 {
			return n, err
		}
	}
}

// Many goroutines read, write and free their own blocks through one
// DeadlineStore over real microsecond Pareto stragglers, tuned so that
// deadlines and hedges fire: every read returns the last-acknowledged
// block, a retried write joins its abandoned attempt instead of running
// beside it, and closing the store leaves no executor behind.
func TestDeadlineStressStragglers(t *testing.T) {
	const workers, rounds = 8, 60
	base := runtime.NumGoroutine()
	inner := &writeLog{
		Store: NewFaultStore(NewMemStore(), FaultConfig{
			Seed:        29,
			ParetoScale: 30 * time.Microsecond,
			ParetoAlpha: 1.0,
			ParetoCap:   4 * time.Millisecond,
		}),
		inflight: make(map[BlockAddr]bool),
	}
	ds := NewDeadlineStore(inner, DeadlinePolicy{
		OpDeadline: time.Millisecond,
		HedgeAfter: 250 * time.Microsecond,
	})
	var mu sync.Mutex
	writeAttempts := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				addr := BlockAddr{Disk: w % 4, Index: w*4 + round%4}
				want := record.Key(w<<16 | round)
				n, err := untilNoDeadline(func() error { return ds.WriteBlock(addr, blk(want)) })
				mu.Lock()
				writeAttempts += n
				mu.Unlock()
				if err != nil {
					t.Errorf("worker %d: write %v: %v", w, addr, err)
					return
				}
				var got StoredBlock
				if _, err := untilNoDeadline(func() (err error) {
					got, err = ds.ReadBlock(addr)
					return err
				}); err != nil {
					t.Errorf("worker %d: read %v: %v", w, addr, err)
					return
				}
				if len(got.Records) != 1 || got.Records[0].Key != want {
					t.Errorf("worker %d: read %v = %+v, want key %d", w, addr, got.Records, want)
					return
				}
				if round%3 != 2 {
					continue
				}
				// A retried free whose abandoned attempt landed first sees
				// ErrAbsent: success, as RetryStore treats it.
				timedOut := false
				if _, err := untilNoDeadline(func() error {
					err := ds.Free(addr)
					if errors.Is(err, ErrDeadline) {
						timedOut = true
					} else if timedOut && errors.Is(err, ErrAbsent) {
						err = nil
					}
					return err
				}); err != nil {
					t.Errorf("worker %d: free %v: %v", w, addr, err)
					return
				}
				if _, err := untilNoDeadline(func() error {
					_, err := ds.ReadBlock(addr)
					return err
				}); !errors.Is(err, ErrAbsent) {
					t.Errorf("worker %d: read of freed %v: %v, want ErrAbsent", w, addr, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := ds.HealthSnapshot()
	t.Logf("timeouts=%d hedged=%d hedge wins=%d; write attempts=%d issued=%d",
		snap.Timeouts, snap.HedgedReads, snap.HedgeWins, writeAttempts, inner.writes)
	if snap.Timeouts == 0 || snap.HedgedReads == 0 {
		t.Errorf("stragglers fired %d deadlines and %d hedges, want both > 0", snap.Timeouts, snap.HedgedReads)
	}
	if inner.overlaps != 0 {
		t.Errorf("%d writes were issued while an attempt of the same block was still running", inner.overlaps)
	}
	if snap.Timeouts >= 3 && inner.writes >= writeAttempts {
		t.Errorf("issued %d writes for %d attempts: no retry joined its abandoned attempt", inner.writes, writeAttempts)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// The health tracker's p99 must come from the sample window and the EWMA
// must follow the stream.
func TestHealthTrackerStats(t *testing.T) {
	tr := NewHealthTracker()
	for i := 0; i < 98; i++ {
		tr.Observe(0, time.Millisecond)
	}
	// Two stragglers in 100 samples: the nearest-rank p99 (the 99th
	// sorted value) lands on them.
	tr.Observe(0, 50*time.Millisecond)
	tr.Observe(0, 50*time.Millisecond)
	snap := tr.Snapshot()
	if len(snap.PerDisk) != 1 {
		t.Fatalf("PerDisk = %+v", snap.PerDisk)
	}
	d := snap.PerDisk[0]
	if d.Ops != 100 {
		t.Fatalf("Ops = %d", d.Ops)
	}
	if d.P99Micros != 50000 {
		t.Fatalf("P99Micros = %v, want 50000", d.P99Micros)
	}
	if d.EWMAMicros <= 1000 || d.EWMAMicros >= 50000 {
		t.Fatalf("EWMAMicros = %v, want between the base and the straggler", d.EWMAMicros)
	}
}

// Deterministic Pareto stragglers: the same seed must produce the same
// delay schedule, every delay bounded by the cap.
func TestFaultStoreParetoDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var mu sync.Mutex
		var got []time.Duration
		fs := NewFaultStore(NewMemStore(), FaultConfig{
			Seed:        11,
			ParetoScale: 50 * time.Microsecond,
			ParetoAlpha: 1.2,
			ParetoCap:   5 * time.Millisecond,
			Sleep: func(d time.Duration) {
				mu.Lock()
				got = append(got, d)
				mu.Unlock()
			},
		})
		a := BlockAddr{Disk: 0, Index: 0}
		if err := fs.WriteBlock(a, blk(1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := fs.ReadBlock(a); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	first := run()
	second := run()
	if len(first) != 9 {
		t.Fatalf("recorded %d delays, want 9", len(first))
	}
	for i, d := range first {
		if d <= 0 || d > 5*time.Millisecond {
			t.Fatalf("delay %d = %v outside (0, cap]", i, d)
		}
		if d != second[i] {
			t.Fatalf("delay %d differs across identical seeds: %v vs %v", i, d, second[i])
		}
	}
}

// A counted stuck op adds StuckDelay to exactly the scheduled operation.
func TestFaultStoreStuckOp(t *testing.T) {
	var mu sync.Mutex
	var got []time.Duration
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		Seed:        3,
		StuckReadAt: 2,
		StuckDelay:  250 * time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			got = append(got, d)
			mu.Unlock()
		},
	})
	a := BlockAddr{Disk: 0, Index: 0}
	if err := fs.WriteBlock(a, blk(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fs.ReadBlock(a); err != nil {
			t.Fatal(err)
		}
	}
	// Only read #2 draws a delay: the write and the other reads have no
	// latency model configured, so they never call Sleep.
	if len(got) != 1 || got[0] != 250*time.Millisecond {
		t.Fatalf("recorded delays = %v, want exactly [250ms]", got)
	}
}

// A stuck write behind a DeadlineStore with a real (tiny) deadline: the
// caller gets a retryable deadline error while the transfer finishes in
// the background — the unit-scale version of the straggler-disk story.
func TestFaultStoreStuckWriteAbandoned(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		Seed:         1,
		StuckWriteAt: 1,
		StuckDelay:   200 * time.Millisecond,
	})
	ds := NewDeadlineStore(fs, DeadlinePolicy{OpDeadline: 10 * time.Millisecond})
	a := BlockAddr{Disk: 0, Index: 0}
	err := ds.WriteBlock(a, blk(6))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stuck write must hit its deadline, got %v", err)
	}
	// The abandoned transfer lands; a joined or fresh retry succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ds.WriteBlock(a, blk(6)); err == nil {
			break
		} else if !errors.Is(err, ErrDeadline) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("write never completed")
		}
	}
	b, err := ds.ReadBlock(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 1 || b.Records[0].Key != 6 {
		t.Fatalf("read back %+v", b)
	}
}
