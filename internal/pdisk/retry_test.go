package pdisk

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"srmsort/internal/record"
)

// retryStack builds MemStore ← FaultStore ← RetryStore with a recorded
// no-op sleep, returning all three layers and the recorded delays.
func retryStack(t *testing.T, fcfg FaultConfig, policy RetryPolicy) (*MemStore, *FaultStore, *RetryStore, *[]time.Duration) {
	t.Helper()
	var delays []time.Duration
	policy.Sleep = func(d time.Duration) { delays = append(delays, d) }
	mem := NewMemStore()
	fault := NewFaultStore(mem, fcfg)
	retry := NewRetryStore(fault, policy)
	return mem, fault, retry, &delays
}

func TestRetryAbsorbsTransientFault(t *testing.T) {
	_, fault, retry, delays := retryStack(t,
		FaultConfig{FailReadAt: 1}, RetryPolicy{MaxAttempts: 3})
	addr := BlockAddr{Disk: 0, Index: 0}
	blk := mkBlock(record.Key(1), record.Key(2))
	if err := retry.WriteBlock(addr, blk); err != nil {
		t.Fatal(err)
	}
	got, err := retry.ReadBlock(addr) // first read fails, retry succeeds
	if err != nil {
		t.Fatalf("retried read failed: %v", err)
	}
	if got.Records[0].Key != 1 {
		t.Fatalf("wrong block back: %v", got.Records[0])
	}
	c := retry.Counts()
	if c.Retries != 1 || c.GiveUps != 0 {
		t.Fatalf("counts = %+v, want 1 retry, 0 giveups", c)
	}
	if len(*delays) != 1 {
		t.Fatalf("slept %d times, want 1", len(*delays))
	}
	if n := fault.OpCount("read"); n != 2 {
		t.Fatalf("inner saw %d reads, want 2", n)
	}
}

func TestRetryExhaustionReturnsRetryError(t *testing.T) {
	_, _, retry, delays := retryStack(t,
		FaultConfig{ReadFailProb: 1}, RetryPolicy{MaxAttempts: 4})
	addr := BlockAddr{Disk: 1, Index: 3}
	if err := retry.WriteBlock(addr, mkBlock(record.Key(9), record.Key(9))); err != nil {
		t.Fatal(err)
	}
	_, err := retry.ReadBlock(addr)
	var rerr *RetryError
	if !errors.As(err, &rerr) {
		t.Fatalf("error %v (%T), want *RetryError", err, err)
	}
	if rerr.Attempts != 4 || rerr.Op != "read" || rerr.Addr != addr {
		t.Fatalf("RetryError = %+v, want 4 attempts on read %v", rerr, addr)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cause lost: %v", err)
	}
	if Retryable(err) {
		t.Fatal("an exhausted RetryError must itself be terminal")
	}
	if len(*delays) != 3 { // 4 attempts = 3 backoffs
		t.Fatalf("slept %d times, want 3", len(*delays))
	}
	c := retry.Counts()
	if c.GiveUps != 1 || c.Retries != 3 || c.Attempts != 5 { // 1 write + 4 reads
		t.Fatalf("counts = %+v", c)
	}
}

func TestRetryTerminalFailsFastUndecorated(t *testing.T) {
	_, fault, retry, delays := retryStack(t, FaultConfig{}, RetryPolicy{MaxAttempts: 5})
	// Reading an absent block is terminal: one attempt, no sleeps, and
	// the error surfaces undecorated (no RetryError wrapper).
	_, err := retry.ReadBlock(BlockAddr{Disk: 0, Index: 7})
	if !errors.Is(err, ErrAbsent) {
		t.Fatalf("error %v, want ErrAbsent", err)
	}
	var rerr *RetryError
	if errors.As(err, &rerr) {
		t.Fatalf("terminal first-try error got decorated: %v", err)
	}
	if len(*delays) != 0 {
		t.Fatalf("slept %d times on a terminal error", len(*delays))
	}
	if n := fault.OpCount("read"); n != 1 {
		t.Fatalf("inner saw %d reads, want 1 (no retry of terminal)", n)
	}
}

func TestRetryTornWriteNotRetried(t *testing.T) {
	_, fault, retry, delays := retryStack(t,
		FaultConfig{TornWriteAt: 1}, RetryPolicy{MaxAttempts: 5})
	err := retry.WriteBlock(BlockAddr{Disk: 0, Index: 0}, mkBlock(record.Key(1), record.Key(1)))
	var term *TerminalError
	if !errors.As(err, &term) {
		t.Fatalf("torn write error %v (%T), want *TerminalError", err, err)
	}
	if len(*delays) != 0 || fault.OpCount("write") != 1 {
		t.Fatal("a torn write (simulated kill) must never be re-attempted")
	}
}

func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	run := func() []time.Duration {
		_, _, retry, delays := retryStack(t,
			FaultConfig{ReadFailProb: 1},
			RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond,
				MaxDelay: 16 * time.Millisecond, Jitter: 0.5, Seed: 42})
		retry.WriteBlock(BlockAddr{}, mkBlock(record.Key(1), record.Key(1)))
		retry.ReadBlock(BlockAddr{})
		return *delays
	}
	a, b := run(), run()
	if len(a) != 7 {
		t.Fatalf("%d delays, want 7", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	for i, d := range a {
		// Jittered delay stays within (0.5·full, full] of the exponential
		// schedule capped at MaxDelay.
		full := time.Millisecond << i
		if full > 16*time.Millisecond {
			full = 16 * time.Millisecond
		}
		if d > full || d < full/2 {
			t.Fatalf("delay %d = %v outside (%v/2, %v]", i, d, full, full)
		}
	}
}

func TestRetryDiskBudgetTakesDiskOffline(t *testing.T) {
	_, fault, retry, _ := retryStack(t,
		FaultConfig{ReadFailProb: 1},
		RetryPolicy{MaxAttempts: 3, DiskBudget: 2})
	for disk := 0; disk < 2; disk++ {
		if err := retry.WriteBlock(BlockAddr{Disk: disk}, mkBlock(record.Key(1), record.Key(1))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := retry.ReadBlock(BlockAddr{Disk: 0})
	if !errors.Is(err, ErrDiskOffline) {
		t.Fatalf("budget-exhausting read: %v, want ErrDiskOffline", err)
	}
	before := fault.OpCount("read")
	_, err = retry.ReadBlock(BlockAddr{Disk: 0})
	if !errors.Is(err, ErrDiskOffline) {
		t.Fatalf("offline-disk read: %v, want ErrDiskOffline", err)
	}
	if fault.OpCount("read") != before {
		t.Fatal("offline disk still receives I/O; want fast failure")
	}
	// The other disk is unaffected (its budget is its own) — but the
	// fault schedule still fails everything, so expect exhaustion, not
	// offline, until its own budget drains.
	if c := retry.Counts(); c.DisksOffline != 1 {
		t.Fatalf("DisksOffline = %d, want 1", c.DisksOffline)
	}
	// Writes to the healthy disk succeed when faults are lifted.
	fault.Configure(FaultConfig{})
	if _, err := retry.ReadBlock(BlockAddr{Disk: 1}); err != nil {
		t.Fatalf("healthy disk after Configure: %v", err)
	}
}

// A System's own retry policy counts into its Stats.
func TestRetryStatsFlowIntoSystem(t *testing.T) {
	fault := NewFaultStore(NewMemStore(), FaultConfig{FailWriteAt: 1})
	sys, err := NewSystem(Config{D: 2, B: 2, Store: fault,
		Retry: &RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.Alloc(0)
	blk := mkBlock(record.Key(5), record.Key(6))
	if err := sys.WriteBlocks([]BlockWrite{{Addr: addr, Block: blk}}); err != nil {
		t.Fatalf("write through system: %v", err)
	}
	st := sys.Stats()
	if st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
	if st.RetryGiveUps != 0 {
		t.Fatalf("Stats.RetryGiveUps = %d, want 0", st.RetryGiveUps)
	}
}

func TestRetryForwardsOptionalInterfaces(t *testing.T) {
	mem := NewMemStore()
	retry := NewRetryStore(mem, RetryPolicy{Sleep: func(time.Duration) {}})
	if err := retry.SaveManifest([]byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	data, ok, err := retry.LoadManifest()
	if err != nil || !ok || string(data) != `{"v":1}` {
		t.Fatalf("LoadManifest = %q, %v, %v", data, ok, err)
	}
	if err := retry.ClearManifest(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := retry.LoadManifest(); ok {
		t.Fatal("manifest survived ClearManifest")
	}
	if err := retry.WriteBlock(BlockAddr{Disk: 2, Index: 0}, mkBlock(record.Key(1), record.Key(1))); err != nil {
		t.Fatal(err)
	}
	if n, err := retry.Frontier(2); err != nil || n != 1 {
		t.Fatalf("Frontier(2) = %d, %v, want 1", n, err)
	}
	if got := len(retry.Blocks()); got != 1 {
		t.Fatalf("Blocks() = %d, want 1", got)
	}
	if err := retry.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemWrapsErrorsWithAttribution(t *testing.T) {
	mem := NewMemStore()
	fault := NewFaultStore(mem, FaultConfig{FailReadAt: 1})
	sys, err := NewSystem(Config{D: 3, B: 2, Store: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.Alloc(2)
	if err := sys.WriteBlocks([]BlockWrite{{Addr: addr, Block: mkBlock(record.Key(1), record.Key(1))}}); err != nil {
		t.Fatal(err)
	}
	_, err = sys.ReadBlocks([]BlockAddr{addr})
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("read error %v (%T), want *IOError", err, err)
	}
	if ioe.Op != "read" || ioe.Addr != addr {
		t.Fatalf("IOError = %+v, want read at %v", ioe, addr)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("attribution lost the cause: %v", err)
	}
	// Attribution composes with retries: exhausted retries inside the
	// store still come out disk-attributed at the System boundary.
	fault2 := NewFaultStore(NewMemStore(), FaultConfig{ReadFailProb: 1})
	retry := NewRetryStore(fault2, RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	sys2, err := NewSystem(Config{D: 2, B: 2, Store: retry})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	a2 := sys2.Alloc(1)
	if err := sys2.WriteBlocks([]BlockWrite{{Addr: a2, Block: mkBlock(record.Key(2), record.Key(2))}}); err != nil {
		t.Fatal(err)
	}
	_, err = sys2.ReadBlocks([]BlockAddr{a2})
	var rerr *RetryError
	if !errors.As(err, &ioe) || !errors.As(err, &rerr) || !errors.Is(err, ErrInjected) {
		t.Fatalf("stacked error %v lost a layer (IOError=%v RetryError=%v cause=%v)",
			err, errors.As(err, &ioe), errors.As(err, &rerr), errors.Is(err, ErrInjected))
	}
	// The message names disk, address and attempts — what an operator
	// needs before replacing hardware.
	msg := err.Error()
	for _, want := range []string{"read", fmt.Sprint(a2.Disk), "attempt"} {
		if !contains(msg, want) {
			t.Fatalf("diagnostic %q does not mention %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// failDiskStore fails every read of disk 0 with a transient error and
// counts the calls it actually received; other disks pass through.
type failDiskStore struct {
	*MemStore
	disk0Reads int64 // atomic
}

func (s *failDiskStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	if addr.Disk == 0 {
		atomic.AddInt64(&s.disk0Reads, 1)
		return StoredBlock{}, errors.New("injected transient failure")
	}
	return s.MemStore.ReadBlock(addr)
}

// The per-disk error budget must be exact in the single-threaded case:
// a budget of 3 takes the disk offline on exactly the third failed
// attempt, no sooner and no later.
func TestRetryDiskBudgetExactCount(t *testing.T) {
	inner := &failDiskStore{MemStore: NewMemStore()}
	retry := NewRetryStore(inner, RetryPolicy{
		MaxAttempts: 10,
		DiskBudget:  3,
		Sleep:       func(time.Duration) {},
	})
	_, err := retry.ReadBlock(BlockAddr{Disk: 0})
	var rerr *RetryError
	if !errors.As(err, &rerr) || !errors.Is(err, ErrDiskOffline) {
		t.Fatalf("want RetryError wrapping ErrDiskOffline, got %v", err)
	}
	if rerr.Attempts != 3 {
		t.Fatalf("Attempts = %d, want exactly the budget (3)", rerr.Attempts)
	}
	if got := atomic.LoadInt64(&inner.disk0Reads); got != 3 {
		t.Fatalf("inner reads = %d, want 3", got)
	}
	c := retry.Counts()
	if c.Attempts != 3 || c.Retries != 2 || c.DisksOffline != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// The budget accounting must stay exact under concurrent operations on
// the same disk: every inner call is counted exactly once (Attempts ==
// calls the inner store saw), the disk goes offline exactly once, and
// nothing resurrects it afterwards. Run under -race this also proves the
// bookkeeping itself is data-race free.
func TestRetryDiskBudgetConcurrentSameDisk(t *testing.T) {
	inner := &failDiskStore{MemStore: NewMemStore()}
	if err := inner.MemStore.WriteBlock(BlockAddr{Disk: 1, Index: 0}, mkBlock(record.Key(8))); err != nil {
		t.Fatal(err)
	}
	retry := NewRetryStore(inner, RetryPolicy{
		MaxAttempts: 10,
		DiskBudget:  3,
		Sleep:       func(time.Duration) {},
	})
	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			_, err := retry.ReadBlock(BlockAddr{Disk: 0, Index: i})
			errs <- err
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; !errors.Is(err, ErrDiskOffline) {
			t.Fatalf("want ErrDiskOffline, got %v", err)
		}
	}
	c := retry.Counts()
	if got := atomic.LoadInt64(&inner.disk0Reads); got != c.Attempts {
		t.Fatalf("inner saw %d reads but Attempts = %d: attempts double- or under-counted", got, c.Attempts)
	}
	if c.DisksOffline != 1 {
		t.Fatalf("DisksOffline = %d, want 1", c.DisksOffline)
	}
	// The offline disk stays down: a second concurrent wave fails fast
	// without a single inner call, and the healthy disk still serves.
	frozen := atomic.LoadInt64(&inner.disk0Reads)
	done := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			if i%2 == 0 {
				_, err := retry.ReadBlock(BlockAddr{Disk: 0, Index: i})
				done <- err
				return
			}
			_, err := retry.ReadBlock(BlockAddr{Disk: 1, Index: 0})
			done <- err
		}(i)
	}
	for i := 0; i < workers; i++ {
		err := <-done
		if err != nil && !errors.Is(err, ErrDiskOffline) {
			t.Fatalf("second wave: %v", err)
		}
	}
	if got := atomic.LoadInt64(&inner.disk0Reads); got != frozen {
		t.Fatalf("offline disk received %d more reads; the budget must not resurrect it", got-frozen)
	}
	if c := retry.Counts(); c.DisksOffline != 1 {
		t.Fatalf("DisksOffline = %d after second wave, want still 1", c.DisksOffline)
	}
}
