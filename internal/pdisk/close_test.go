package pdisk

import (
	"errors"
	"sync"
	"testing"
	"time"

	"srmsort/internal/record"
)

// Close must be idempotent on every backend: the second (and later) calls
// return the first call's result and touch nothing.
func TestCloseIdempotent(t *testing.T) {
	stores := []struct {
		name string
		make func() Store
	}{
		{"mem", func() Store { return NewMemStore() }},
		{"file", func() Store {
			fs, err := NewFileStore(t.TempDir(), 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"fault", func() Store { return NewFaultStore(NewMemStore(), FaultConfig{}) }},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			sys, err := NewSystem(Config{D: 2, B: 2, Store: st.make()})
			if err != nil {
				t.Fatal(err)
			}
			a := sys.Alloc(0)
			if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(1)}}).Wait(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := sys.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
		})
	}
}

// Closing a System while other goroutines are still issuing async
// operations must never panic (no send on a closed channel): every issue
// either completes normally or surfaces ErrClosed from Wait. Run with
// -race for the full effect.
func TestCloseConcurrentWithAsyncIssues(t *testing.T) {
	for round := 0; round < 20; round++ {
		sys, err := NewSystem(Config{D: 4, B: 2})
		if err != nil {
			t.Fatal(err)
		}
		const issuers = 4
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < issuers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					a := sys.Alloc(g)
					err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(record.Key(i))}}).Wait()
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("issuer %d: %v", g, err)
						}
						return
					}
				}
			}(g)
		}
		closed := make(chan struct{})
		go func() {
			<-start
			sys.Close()
			close(closed)
		}()
		close(start)
		wg.Wait()
		<-closed
		// Whatever interleaving happened, a second Close is still clean.
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Operations already in flight when Close starts are drained: their Waits
// return normally and their stats are counted before the store closes.
func TestCloseDrainsInFlight(t *testing.T) {
	sys, err := NewSystem(Config{D: 2, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*WriteFuture
	for i := 0; i < 10; i++ {
		a := sys.Alloc(i % 2)
		futs = append(futs, sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(record.Key(i))}}))
	}
	done := make(chan error, 1)
	go func() { done <- sys.Close() }()
	for _, f := range futs {
		if err := f.Wait(); err != nil {
			t.Fatalf("in-flight write failed across Close: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().WriteOps; got != 10 {
		t.Fatalf("WriteOps = %d, want 10 (drained ops must be counted)", got)
	}
}

// Close never hangs on an async op nobody waited on: it finishes the op,
// which abandons the stuck transfer at its deadline, and the later Wait
// reports that.
func TestCloseAbandonsStuckUnwaitedOp(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		StuckReadAt: 1,
		Sleep:       func(time.Duration) { <-release },
	})
	a := BlockAddr{Disk: 0, Index: 0}
	if err := fs.WriteBlock(a, mkBlock(1)); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{D: 1, B: 2, Store: fs, Deadline: &DeadlinePolicy{OpDeadline: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	fut := sys.ReadBlocksAsync([]BlockAddr{a})
	closed := make(chan error, 1)
	go func() { closed <- sys.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close hung on an un-waited op with a stuck transfer")
	}
	if _, err := fut.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Wait after Close: %v, want ErrDeadline", err)
	}
}
