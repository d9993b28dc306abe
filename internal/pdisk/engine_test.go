package pdisk

import (
	"errors"
	"testing"
	"time"

	"srmsort/internal/record"
)

// nonSerial hides a store's SerialTransfers, so a System fans its
// transfers out one leg each — FileStore's and FaultStore's path.
type nonSerial struct{ Store }

// engineStores runs a test over a serial store (the stuck MemStore
// itself) and a non-serial view of it.
func engineStores(t *testing.T, park map[string]int, test func(t *testing.T, inner *stuckStore, st Store)) {
	for _, serial := range []bool{true, false} {
		name := "serial"
		if !serial {
			name = "nonserial"
		}
		t.Run(name, func(t *testing.T) {
			counts := make(map[string]int, len(park))
			for op, n := range park {
				counts[op] = n
			}
			inner := newStuckStore(counts)
			var st Store = inner
			if !serial {
				st = nonSerial{inner}
			}
			test(t, inner, st)
		})
	}
}

func engineSystem(t *testing.T, st Store, retry *RetryPolicy, deadline *DeadlinePolicy) *System {
	t.Helper()
	sys, err := NewSystem(Config{D: 4, B: 4, Store: st, Retry: retry, Deadline: deadline, RetainStore: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// A transfer that hangs past its deadline times out with a retryable
// error; each timeout is charged to the disk's error budget, and the disk
// goes offline, failing later ops without issuing them.
func TestEngineTimeoutChargesBudget(t *testing.T) {
	engineStores(t, map[string]int{"read": 100}, func(t *testing.T, inner *stuckStore, st Store) {
		defer close(inner.release)
		addr := BlockAddr{Disk: 1, Index: 0}
		if err := inner.MemStore.WriteBlock(addr, blk(3)); err != nil {
			t.Fatal(err)
		}
		ctl := &timerCtl{}
		sys := engineSystem(t, st,
			&RetryPolicy{MaxAttempts: 5, DiskBudget: 2, Sleep: func(time.Duration) {}},
			&DeadlinePolicy{OpDeadline: 20 * time.Millisecond, After: ctl.After, Now: ctl.Now})
		defer sys.Close()
		errc := make(chan error, 1)
		go func() {
			_, err := sys.ReadBlocks([]BlockAddr{addr})
			errc <- err
		}()
		inner.waitParked(t, "read", 1)
		ctl.fire(t, 0) // attempt 1 times out: retryable, charged
		inner.waitParked(t, "read", 2)
		ctl.fire(t, 1) // attempt 2 times out: the budget is spent
		err := <-errc
		var ioe *IOError
		if !errors.Is(err, ErrDiskOffline) || !errors.As(err, &ioe) || ioe.Addr != addr {
			t.Fatalf("want ErrDiskOffline attributed to %v, got %v", addr, err)
		}
		st2 := sys.Stats()
		if st2.Retries != 1 || st2.RetryGiveUps != 1 {
			t.Fatalf("Retries = %d, RetryGiveUps = %d, want 1/1", st2.Retries, st2.RetryGiveUps)
		}
		if st2.Health == nil || st2.Health.Timeouts != 2 {
			t.Fatalf("Health = %+v, want 2 timeouts", st2.Health)
		}
		before := inner.callCount("read")
		if _, err := sys.ReadBlocks([]BlockAddr{addr}); !errors.Is(err, ErrDiskOffline) {
			t.Fatalf("offline disk must fail fast, got %v", err)
		}
		if inner.callCount("read") != before {
			t.Fatal("offline disk still issued reads")
		}
	})
}

// Without a retry policy a timed-out transfer surfaces its DeadlineError,
// attributed to its disk.
func TestEngineTimeoutSurfacesWithoutRetry(t *testing.T) {
	engineStores(t, map[string]int{"write": 1}, func(t *testing.T, inner *stuckStore, st Store) {
		defer close(inner.release)
		ctl := &timerCtl{}
		sys := engineSystem(t, st, nil, &DeadlinePolicy{OpDeadline: 20 * time.Millisecond, After: ctl.After, Now: ctl.Now})
		defer sys.Close()
		errc := make(chan error, 1)
		go func() { errc <- sys.WriteBlocks([]BlockWrite{{Addr: BlockAddr{Disk: 2}, Block: blk(1)}}) }()
		inner.waitParked(t, "write", 1)
		ctl.fire(t, 0)
		err := <-errc
		var derr *DeadlineError
		var ioe *IOError
		if !errors.As(err, &derr) || !errors.As(err, &ioe) || ioe.Addr.Disk != 2 || !Retryable(derr) {
			t.Fatalf("want a disk-attributed retryable DeadlineError, got %v", err)
		}
	})
}

// A hedged read wins when the primary leg hangs, and the transfers of
// the op behind it still complete.
func TestEngineHedgeWins(t *testing.T) {
	engineStores(t, map[string]int{"read": 1}, func(t *testing.T, inner *stuckStore, st Store) {
		defer close(inner.release)
		a0, a1 := BlockAddr{Disk: 0, Index: 0}, BlockAddr{Disk: 1, Index: 0}
		for _, w := range []BlockWrite{{a0, blk(7)}, {a1, blk(8)}} {
			if err := inner.MemStore.WriteBlock(w.Addr, w.Block); err != nil {
				t.Fatal(err)
			}
		}
		ctl := &timerCtl{}
		sys := engineSystem(t, st, nil, &DeadlinePolicy{HedgeAfter: 5 * time.Millisecond, After: ctl.After, Now: ctl.Now})
		defer sys.Close()
		type res struct {
			blks []StoredBlock
			err  error
		}
		resc := make(chan res, 1)
		go func() {
			b, err := sys.ReadBlocks([]BlockAddr{a0, a1})
			resc <- res{b, err}
		}()
		inner.waitParked(t, "read", 1)
		// The first tick is armed for the first transfer's hedge point.
		// Off a serial store either transfer may be the stuck one; a tick
		// finding the other one in flight re-arms for its own hedge point.
		var r res
		for i := 0; ; i++ {
			ctl.fire(t, i)
			select {
			case r = <-resc:
			case <-time.After(50 * time.Millisecond):
				continue
			}
			break
		}
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.blks[0].Records[0].Key != 7 || r.blks[1].Records[0].Key != 8 {
			t.Fatalf("wrong blocks back: %+v", r.blks)
		}
		h := sys.Stats().Health
		if h.HedgedReads != 1 || h.HedgeWins != 1 || h.Timeouts != 0 {
			t.Fatalf("hedged=%d wins=%d timeouts=%d, want 1/1/0", h.HedgedReads, h.HedgeWins, h.Timeouts)
		}
		if got := inner.callCount("read"); got != 3 {
			t.Fatalf("inner reads = %d, want 3 (primary, hedge, second block)", got)
		}
	})
}

// A free abandoned at its deadline may land late; the retry then joins it
// or sees ErrAbsent, and either way the batch succeeds.
func TestEngineLateFreeSucceeds(t *testing.T) {
	engineStores(t, map[string]int{"free": 1}, func(t *testing.T, inner *stuckStore, st Store) {
		a0, a1 := BlockAddr{Disk: 0, Index: 0}, BlockAddr{Disk: 0, Index: 1}
		for _, a := range []BlockAddr{a0, a1} {
			if err := inner.MemStore.WriteBlock(a, blk(9)); err != nil {
				t.Fatal(err)
			}
		}
		ctl := &timerCtl{}
		released := false
		sys := engineSystem(t, st,
			&RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {
				if !released {
					released = true
					close(inner.release) // let the abandoned free land
				}
			}},
			&DeadlinePolicy{OpDeadline: 20 * time.Millisecond, After: ctl.After, Now: ctl.Now})
		defer sys.Close()
		errc := make(chan error, 1)
		go func() { errc <- sys.FreeBlocks(a0, a1) }()
		inner.waitParked(t, "free", 1)
		ctl.fire(t, 0)
		if err := <-errc; err != nil {
			t.Fatalf("late-completing free must read as success, got %v", err)
		}
		for _, a := range []BlockAddr{a0, a1} {
			if _, err := inner.MemStore.ReadBlock(a); !errors.Is(err, ErrAbsent) {
				t.Fatalf("block %v still present after free: %v", a, err)
			}
		}
	})
}

// A write retried while its abandoned attempt is still in flight joins
// that attempt instead of issuing a duplicate.
func TestEngineJoinedWriteSingleIssue(t *testing.T) {
	engineStores(t, map[string]int{"write": 1}, func(t *testing.T, inner *stuckStore, st Store) {
		addr := BlockAddr{Disk: 0, Index: 0}
		ctl := &timerCtl{}
		sys := engineSystem(t, st, nil, &DeadlinePolicy{OpDeadline: 20 * time.Millisecond, After: ctl.After, Now: ctl.Now})
		defer sys.Close()
		write := func(k record.Key) error { return sys.WriteBlocks([]BlockWrite{{Addr: addr, Block: blk(k)}}) }
		errc := make(chan error, 1)
		go func() { errc <- write(4) }()
		inner.waitParked(t, "write", 1)
		ctl.fire(t, 0)
		if err := <-errc; !errors.Is(err, ErrDeadline) {
			t.Fatalf("want deadline error, got %v", err)
		}
		reads := ctl.clockReads()
		errc2 := make(chan error, 1)
		go func() { errc2 <- write(4) }()
		ctl.waitJoined(t, reads)
		if got := inner.callCount("write"); got != 1 {
			t.Fatalf("inner writes = %d, want 1 (joined, not duplicated)", got)
		}
		close(inner.release)
		if err := <-errc2; err != nil {
			t.Fatalf("joined write must inherit the landed result, got %v", err)
		}
		if got := inner.callCount("write"); got != 1 {
			t.Fatalf("inner writes = %d after join, want 1", got)
		}
		if err := write(5); err != nil {
			t.Fatal(err)
		}
		if got := inner.callCount("write"); got != 2 {
			t.Fatalf("inner writes = %d, want 2 (fresh issue)", got)
		}
	})
}

// A deadline counts from a transfer's own start: the transfers of a long
// op on a serial store each run well inside it, so none times out though
// the op as a whole outlasts it many times over. Store latency and
// deadlines run on one test clock (timerCtl.sleep), so the op's 40
// transfers of up to 2ms span up to 80ms of it with every timer firing
// when due, and a slow host cannot stretch a transfer past its deadline.
func TestEngineDeadlineIsPerTransfer(t *testing.T) {
	ctl := &timerCtl{}
	fault := NewFaultStore(NewMemStore(), FaultConfig{MaxLatency: 2 * time.Millisecond, Sleep: ctl.sleep})
	sys := engineSystem(t, fault, nil, &DeadlinePolicy{OpDeadline: 10 * time.Millisecond, After: ctl.After, Now: ctl.Now})
	defer sys.Close()
	addrs := make([]BlockAddr, 40)
	for i := range addrs {
		addrs[i] = BlockAddr{Disk: i % 4, Index: i / 4}
		if err := fault.WriteBlock(addrs[i], blk(1)); err != nil {
			t.Fatal(err)
		}
	}
	start := ctl.Now()
	if err := sys.FreeBlocks(addrs...); err != nil {
		t.Fatalf("a batch longer than the deadline failed: %v", err)
	}
	if h := sys.Stats().Health; h.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0", h.Timeouts)
	}
	if took := ctl.Now().Sub(start); took < 2*10*time.Millisecond {
		t.Fatalf("the batch took %v of the test clock, want several deadlines' worth", took)
	}
}

// A policy with neither deadline nor hedge only tracks latency, and runs
// inline: no executor handoff at all.
func TestEngineTrackerOnlyInline(t *testing.T) {
	sys := engineSystem(t, NewMemStore(), nil, &DeadlinePolicy{})
	defer sys.Close()
	for i := 0; i < 4; i++ {
		a := BlockAddr{Disk: i % 2, Index: i / 2}
		if err := sys.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ReadBlocks([]BlockAddr{a}); err != nil {
			t.Fatal(err)
		}
	}
	var ops int64
	for _, d := range sys.Stats().Health.PerDisk {
		ops += d.Ops
	}
	if ops != 8 {
		t.Fatalf("tracked ops = %d, want 8", ops)
	}
	if n := sys.eng.handoffs.Load(); n != 0 {
		t.Fatalf("%d executor handoffs, want 0 (inline)", n)
	}
}

// freeOK is a MemStore whose frees always succeed, so a free batch can
// be measured over and over.
type freeOK struct{ *MemStore }

func (freeOK) Free(BlockAddr) error { return nil }

// Op validation allocates nothing: a read allocates only its result, a
// write only its clones, a free batch nothing — with or without a
// bounded policy. An async op allocates one object more than its sync
// twin: the future.
func TestEngineOpsAllocateOnlyResults(t *testing.T) {
	for _, dl := range []*DeadlinePolicy{nil, {OpDeadline: time.Minute}} {
		sys := engineSystem(t, freeOK{NewMemStore()}, nil, dl)
		addrs := []BlockAddr{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
		writes := make([]BlockWrite, len(addrs))
		for i, a := range addrs {
			writes[i] = BlockWrite{Addr: a, Block: StoredBlock{Recs16: []record.Rec16{{Key: 1}}}}
		}
		cycle := func() {
			if err := sys.WriteBlocks(writes); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.ReadBlocks(addrs); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		if got := testing.AllocsPerRun(100, func() { sys.ReadBlocks(addrs) }); got != 1 {
			t.Errorf("deadline=%v: ReadBlocks of 4 allocates %.1f, want 1 (its result)", dl != nil, got)
		}
		if got := testing.AllocsPerRun(100, func() { sys.WriteBlocks(writes) }); got != 4 {
			t.Errorf("deadline=%v: WriteBlocks of 4 allocates %.1f, want 4 (its clones)", dl != nil, got)
		}
		if got := testing.AllocsPerRun(100, func() { sys.ReadBlocksAsync(addrs).Wait() }); got > 2 {
			t.Errorf("deadline=%v: ReadBlocksAsync of 4 allocates %.1f, want <= 2 (its result and future)", dl != nil, got)
		}
		if got := testing.AllocsPerRun(100, func() { sys.WriteBlocksAsync(writes).Wait() }); got > 5 {
			t.Errorf("deadline=%v: WriteBlocksAsync of 4 allocates %.1f, want <= 5 (its clones and future)", dl != nil, got)
		}
		if err := sys.FreeBlocks(addrs...); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { sys.FreeBlocks(addrs...) }); got != 0 {
			t.Errorf("deadline=%v: FreeBlocks allocates %.1f, want 0", dl != nil, got)
		}
		sys.Close()
	}
}

// ResetStats zeroes the retry counters with the rest: a sort's Stats
// must not carry retries from before its counted window.
func TestResetStatsZeroesRetries(t *testing.T) {
	fault := NewFaultStore(NewMemStore(), FaultConfig{Seed: 3, ReadFailProb: 0.5})
	sys := engineSystem(t, fault, &RetryPolicy{MaxAttempts: 20, Sleep: func(time.Duration) {}}, nil)
	defer sys.Close()
	a := BlockAddr{Disk: 0, Index: 0}
	if err := sys.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1)}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := sys.ReadBlocks([]BlockAddr{a}); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().Retries == 0 {
		t.Fatal("a 50% failure rate drew no retries")
	}
	sys.ResetStats()
	if st := sys.Stats(); st.ReadOps != 0 || st.Retries != 0 || st.RetryGiveUps != 0 {
		t.Fatalf("after ResetStats: ReadOps=%d Retries=%d RetryGiveUps=%d, want all 0",
			st.ReadOps, st.Retries, st.RetryGiveUps)
	}
}

// Manifest and frontier calls through the System are retried under its
// policy and never bounded by its deadline.
func TestEngineControlOpsRetried(t *testing.T) {
	fault := NewFaultStore(NewMemStore(), FaultConfig{FailManifestAt: 1, FailFrontierAt: 1})
	sys := engineSystem(t, fault, &RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
		&DeadlinePolicy{OpDeadline: time.Nanosecond})
	defer sys.Close()
	if err := sys.SaveManifest([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if data, ok, err := sys.LoadManifest(); err != nil || !ok || string(data) != "m" {
		t.Fatalf("LoadManifest = %q %v %v", data, ok, err)
	}
	if st := sys.Stats(); st.Retries != 2 { // NewSystem's frontier probe and the save
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
}

// holdReads parks every block read until release is closed.
type holdReads struct {
	Store
	release chan struct{}
}

func (h holdReads) ReadBlock(a BlockAddr) (StoredBlock, error) {
	<-h.release
	return h.Store.ReadBlock(a)
}

// A burst of async legs in flight at once — Step 1 of an async merge
// issues one per initial block — leaves at most 4D executors parked once
// it has landed, not one per leg.
func TestEngineBurstParksAtMost4D(t *testing.T) {
	const d, ops = 2, 40
	store := holdReads{NewMemStore(), make(chan struct{})}
	sys, err := NewSystem(Config{D: d, B: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addrs := make([][]BlockAddr, ops)
	for i := range addrs {
		for disk := 0; disk < d; disk++ {
			a := sys.Alloc(disk)
			if err := sys.WriteBlocks([]BlockWrite{{Addr: a, Block: mkBlock(record.Key(i))}}); err != nil {
				t.Fatal(err)
			}
			addrs[i] = append(addrs[i], a)
		}
	}
	futs := make([]*ReadFuture, ops)
	for i := range futs {
		futs[i] = sys.ReadBlocksAsync(addrs[i])
	}
	close(store.release)
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	sys.eng.mu.Lock()
	parked := len(sys.eng.idle)
	sys.eng.mu.Unlock()
	if parked != 4*d {
		t.Fatalf("%d executors parked after a burst of %d legs, want 4D = %d", parked, ops*d, 4*d)
	}
}

// A transfer queued at the disk gate behind a stuck one is timed from its
// own start, not from when its op's timer was armed: one that gets its
// slot just before that timer fires must not be abandoned moments after
// it started.
func TestEngineQueuedTransferTimedFromItsStart(t *testing.T) {
	inner := newStuckStore(map[string]int{"read": 2})
	released := false
	release := func() {
		if !released {
			released = true
			close(inner.release)
		}
	}
	defer release()
	a, b := BlockAddr{Disk: 0, Index: 0}, BlockAddr{Disk: 0, Index: 1}
	for _, x := range []BlockAddr{a, b} {
		if err := inner.MemStore.WriteBlock(x, blk(record.Key(x.Index))); err != nil {
			t.Fatal(err)
		}
	}
	ctl := &timerCtl{}
	sys, err := NewSystem(Config{D: 1, B: 4, Store: inner, Gate: NewDiskGate(1, 1), RetainStore: true,
		Deadline: &DeadlinePolicy{OpDeadline: 20 * time.Millisecond, After: ctl.After, Now: ctl.Now}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Async reads, so both are in flight at once (sync ops take turns);
	// their waiters handle the injected ticks.
	read := func(addr BlockAddr) chan error {
		fut := sys.ReadBlocksAsync([]BlockAddr{addr})
		errc := make(chan error, 1)
		go func() {
			_, err := fut.Wait()
			errc <- err
		}()
		return errc
	}
	errA := read(a)
	inner.waitParked(t, "read", 1) // a holds the disk's one gate slot
	ctl.waitTimers(t, 1)
	errB := read(b)
	ctl.waitTimers(t, 2) // b's timer, armed while b waits at the gate
	ctl.fire(t, 0)       // a's deadline: a is abandoned, b takes the slot
	if err := <-errA; !errors.Is(err, ErrDeadline) {
		t.Fatalf("stuck read: %v, want ErrDeadline", err)
	}
	inner.waitParked(t, "read", 2) // b is in flight, from the same instant
	ctl.fire(t, 1)                 // b's timer is due, but b has not run at all
	release()
	select {
	case err := <-errB:
		if err != nil {
			t.Fatalf("read that started as its timer fired was abandoned: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read behind the stuck one never finished")
	}
	if h := sys.Stats().Health; h.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1 (the stuck read only)", h.Timeouts)
	}
}
