package pdisk

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"srmsort/internal/record"
)

func mkBlock(keys ...record.Key) StoredBlock {
	b := StoredBlock{}
	for _, k := range keys {
		b.Records = append(b.Records, record.Record{Key: k, Val: uint64(k) * 7})
	}
	return b
}

// waitGoroutines retries until the goroutine count drops back to at most
// base, tolerating the runtime's own lazily-exiting goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Async writes followed by async reads must round-trip the data and count
// exactly the same Stats as the synchronous path would.
func TestAsyncReadWriteRoundTrip(t *testing.T) {
	const d = 4
	sys, err := NewSystem(Config{D: d, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var writes []BlockWrite
	var addrs []BlockAddr
	for disk := 0; disk < d; disk++ {
		a := sys.Alloc(disk)
		writes = append(writes, BlockWrite{Addr: a, Block: mkBlock(record.Key(10 + disk))})
		addrs = append(addrs, a)
	}
	if err := sys.WriteBlocksAsync(writes).Wait(); err != nil {
		t.Fatal(err)
	}
	blocks, err := sys.ReadBlocksAsync(addrs).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks {
		if got := blk.Records.FirstKey(); got != record.Key(10+i) {
			t.Fatalf("block %d: first key %d, want %d", i, got, 10+i)
		}
	}

	st := sys.Stats()
	if st.ReadOps != 1 || st.WriteOps != 1 || st.BlocksRead != d || st.BlocksWritten != d {
		t.Fatalf("stats %+v, want 1 read op, 1 write op, %d blocks each way", st, d)
	}
	for disk := 0; disk < d; disk++ {
		if st.PerDiskReads[disk] != 1 || st.PerDiskWrites[disk] != 1 {
			t.Fatalf("disk %d traffic %d/%d, want 1/1", disk, st.PerDiskReads[disk], st.PerDiskWrites[disk])
		}
	}
}

// Validation failures (disk conflicts, oversize blocks, bad addresses)
// surface at Wait, never as panics, and count nothing.
func TestAsyncValidationErrors(t *testing.T) {
	sys, err := NewSystem(Config{D: 2, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Two blocks on the same disk in one operation.
	conflict := []BlockAddr{{Disk: 0, Index: 0}, {Disk: 0, Index: 1}}
	if _, err := sys.ReadBlocksAsync(conflict).Wait(); !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("conflict read: %v, want ErrDiskConflict", err)
	}
	// Oversize block.
	big := BlockWrite{Addr: BlockAddr{Disk: 0, Index: 0}, Block: mkBlock(1, 2, 3)}
	if err := sys.WriteBlocksAsync([]BlockWrite{big}).Wait(); err == nil {
		t.Fatal("oversize async write accepted")
	}
	// Missing block.
	if _, err := sys.ReadBlocksAsync([]BlockAddr{{Disk: 1, Index: 42}}).Wait(); err == nil {
		t.Fatal("read of absent block succeeded")
	}
	if st := sys.Stats(); st.Ops() != 0 {
		t.Fatalf("failed operations were counted: %+v", st)
	}
}

// Wait is idempotent: calling it twice returns the same result and counts
// the operation once.
func TestAsyncWaitIdempotent(t *testing.T) {
	sys, err := NewSystem(Config{D: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a := sys.Alloc(0)
	if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(5)}}).Wait(); err != nil {
		t.Fatal(err)
	}
	fut := sys.ReadBlocksAsync([]BlockAddr{a})
	for i := 0; i < 3; i++ {
		blocks, err := fut.Wait()
		if err != nil || blocks[0].Records.FirstKey() != 5 {
			t.Fatalf("wait %d: %v %v", i, blocks, err)
		}
	}
	if st := sys.Stats(); st.ReadOps != 1 {
		t.Fatalf("ReadOps = %d after repeated Wait, want 1", st.ReadOps)
	}
}

// Injected faults come back as clean errors from Wait, and the engine's
// executors shut down with the system regardless.
func TestAsyncFaultsSurfaceAndWorkersStop(t *testing.T) {
	base := runtime.NumGoroutine()

	fs := NewFaultStore(NewMemStore(), FaultConfig{FailReadAt: 2})
	sys, err := NewSystem(Config{D: 2, B: 2, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := sys.Alloc(0), sys.Alloc(1)
	wf := sys.WriteBlocksAsync([]BlockWrite{
		{Addr: a0, Block: mkBlock(1)},
		{Addr: a1, Block: mkBlock(2)},
	})
	if err := wf.Wait(); err != nil {
		t.Fatal(err)
	}
	// This read fans out to two store reads; one of them is the failing #2.
	_, err = sys.ReadBlocksAsync([]BlockAddr{a0, a1}).Wait()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected read fault came back as %v", err)
	}
	if st := sys.Stats(); st.ReadOps != 0 {
		t.Fatalf("failed read op was counted: %+v", st)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)

	// Async calls after Close fail cleanly.
	if _, err := sys.ReadBlocksAsync([]BlockAddr{a0}).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close async read: %v, want ErrClosed", err)
	}
}

// Many concurrent issuers hammering one System must neither race nor lose
// operations; run under -race this is the async layer's shakedown.
func TestAsyncConcurrentIssuers(t *testing.T) {
	const (
		d       = 4
		issuers = 8
		opsEach = 25
	)
	sys, err := NewSystem(Config{D: d, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	errc := make(chan error, issuers)
	for g := 0; g < issuers; g++ {
		go func(g int) {
			for i := 0; i < opsEach; i++ {
				var writes []BlockWrite
				var addrs []BlockAddr
				for disk := 0; disk < d; disk++ {
					a := sys.Alloc(disk)
					writes = append(writes, BlockWrite{Addr: a, Block: mkBlock(record.Key(g*1000 + i))})
					addrs = append(addrs, a)
				}
				if err := sys.WriteBlocksAsync(writes).Wait(); err != nil {
					errc <- err
					return
				}
				blocks, err := sys.ReadBlocksAsync(addrs).Wait()
				if err != nil {
					errc <- err
					return
				}
				for _, blk := range blocks {
					if blk.Records.FirstKey() != record.Key(g*1000+i) {
						errc <- errors.New("read returned a foreign block")
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < issuers; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	want := int64(issuers * opsEach)
	if st.ReadOps != want || st.WriteOps != want {
		t.Fatalf("ops %d/%d, want %d/%d", st.ReadOps, st.WriteOps, want, want)
	}
	if st.BlocksRead != want*d || st.BlocksWritten != want*d {
		t.Fatalf("blocks %d/%d, want %d", st.BlocksRead, st.BlocksWritten, want*d)
	}
}

// A System that used async I/O must return to the baseline goroutine
// count after Close: its executors stop.
func TestAsyncLifecycleNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		sys, err := NewSystem(Config{D: 8, B: 2})
		if err != nil {
			t.Fatal(err)
		}
		a := sys.Alloc(3)
		if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(1)}}).Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ReadBlocksAsync([]BlockAddr{a}).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}

// An async read nobody waits on yet still gives up its gate slot at its
// deadline: a later read of the same disk, behind it at a one-wide gate,
// completes instead of queueing forever behind a stuck transfer.
func TestAsyncUnwaitedStuckReadFreesGate(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		StuckReadAt: 1,
		Sleep:       func(time.Duration) { <-release },
	})
	a, b := BlockAddr{Disk: 0, Index: 0}, BlockAddr{Disk: 0, Index: 1}
	for _, x := range []BlockAddr{a, b} {
		if err := fs.WriteBlock(x, mkBlock(record.Key(x.Index))); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem(Config{D: 1, B: 2, Store: fs, Gate: NewDiskGate(1, 1),
		Deadline: &DeadlinePolicy{OpDeadline: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	stuck := sys.ReadBlocksAsync([]BlockAddr{a})
	for fs.OpCount("read") < 1 {
		time.Sleep(time.Millisecond) // until the stuck read holds the slot
	}
	done := make(chan error, 1)
	go func() {
		_, err := sys.ReadBlocks([]BlockAddr{b})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read queued forever behind an un-waited stuck read")
	}
	if _, err := stuck.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("stuck read: %v, want ErrDeadline", err)
	}
}

// A straggling async read is hedged at HedgeAfter while its caller works
// on, not only once the caller waits.
func TestAsyncUnwaitedReadIsHedged(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		StuckReadAt: 1,
		Sleep:       func(time.Duration) { <-release },
	})
	a := BlockAddr{Disk: 0, Index: 0}
	if err := fs.WriteBlock(a, mkBlock(5)); err != nil {
		t.Fatal(err)
	}
	tracker := NewHealthTracker()
	sys, err := NewSystem(Config{D: 1, B: 2, Store: fs,
		Deadline: &DeadlinePolicy{HedgeAfter: 10 * time.Millisecond, Tracker: tracker}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fut := sys.ReadBlocksAsync([]BlockAddr{a})
	deadline := time.Now().Add(5 * time.Second)
	for fs.OpCount("read") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no hedge leg issued before Wait")
		}
		time.Sleep(time.Millisecond)
	}
	blocks, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0].Records.FirstKey() != 5 {
		t.Fatalf("hedged read got key %d, want 5", blocks[0].Records.FirstKey())
	}
	if h := tracker.Snapshot(); h.HedgedReads != 1 || h.HedgeWins != 1 {
		t.Fatalf("hedged %d, won %d; want 1 and 1", h.HedgedReads, h.HedgeWins)
	}
}
