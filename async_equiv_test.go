package srmsort

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"srmsort/internal/pdisk"
)

// The async pipeline's contract is indistinguishability: for every
// algorithm, disk count and worker count, Config.Async must change neither
// a byte of output nor a single I/O statistic. This is the public-API
// enforcement of the equivalence the internal packages prove piecewise.
func TestAsyncEquivalence(t *testing.T) {
	in := benchRecords(4000, 12345)
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		if err := WriteRecords(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM, PSV} {
		for _, d := range []int{1, 2, 4, 8} {
			if alg == PSV && d < 2 {
				continue // PSV needs at least two disks to transpose across
			}
			// 0 is the default; it runs a pass's merges one at a time, as 1 does.
			for _, workers := range []int{0, 1, 2, -1} {
				name := fmt.Sprintf("%s/D=%d/workers=%d", alg, d, workers)
				t.Run(name, func(t *testing.T) {
					cfg := Config{D: d, B: 4, K: 2, Algorithm: alg, Seed: 42, Workers: workers}

					syncOut, syncStats, err := Sort(in, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Async = true
					asyncOut, asyncStats, err := Sort(in, cfg)
					if err != nil {
						t.Fatal(err)
					}

					if !bytes.Equal(encode(syncOut), encode(asyncOut)) {
						t.Fatal("async output differs from sync output")
					}
					if syncStats != asyncStats {
						t.Fatalf("stats diverge:\nsync  %+v\nasync %+v", syncStats, asyncStats)
					}
					if syncStats.TotalOps() != asyncStats.TotalOps() {
						t.Fatalf("op counts diverge: %d vs %d", syncStats.TotalOps(), asyncStats.TotalOps())
					}
				})
			}
		}
	}
}

// SortStream with Async must round-trip the wire format unchanged too.
func TestAsyncSortStreamEquivalence(t *testing.T) {
	in := benchRecords(3000, 777)
	var wire bytes.Buffer
	if err := WriteRecords(&wire, in); err != nil {
		t.Fatal(err)
	}

	run := func(async bool) ([]byte, Stats) {
		var out bytes.Buffer
		stats, err := SortStream(bytes.NewReader(wire.Bytes()), &out,
			Config{D: 4, B: 4, K: 2, Seed: 5, Async: async})
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), stats
	}
	syncBytes, syncStats := run(false)
	asyncBytes, asyncStats := run(true)
	if !bytes.Equal(syncBytes, asyncBytes) {
		t.Fatal("async stream output differs from sync")
	}
	if syncStats != asyncStats {
		t.Fatalf("stream stats diverge:\nsync  %+v\nasync %+v", syncStats, asyncStats)
	}
}

// Duplicate-heavy keys with a tiny block size starve the forecast data
// structure and force virtual flushes; the async pipeline must take that
// path too, and take it often. (Folded in from the review-probe test.)
func TestAsyncFlushHeavyWorkload(t *testing.T) {
	var flushes, reread int64
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Record, 3000)
		for i := range in {
			in[i] = Record{Key: uint64(rng.Intn(150)), Val: uint64(i)}
		}
		for _, d := range []int{2, 4} {
			_, stats, err := Sort(in, Config{D: d, B: 3, K: 2, Algorithm: SRM, Seed: seed, Async: true})
			if err != nil {
				t.Fatal(err)
			}
			flushes += stats.Flushes
			reread += stats.BlocksReread
		}
	}
	if flushes == 0 {
		t.Fatal("duplicate-heavy workload triggered no virtual flushes")
	}
	t.Logf("total flushes=%d reread=%d", flushes, reread)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within five seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A file-backed async sort through the public API must leave no goroutines
// (disk workers) behind once Sort returns — Sort owns the system's whole
// lifecycle.
func TestAsyncFileBackedNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	in := benchRecords(2000, 31)
	for i := 0; i < 2; i++ {
		out, _, err := Sort(in, Config{
			D: 4, B: 8, K: 2, Seed: 9, Async: true, Backend: FileBackend,
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(out); j++ {
			if out[j-1].Key > out[j].Key {
				t.Fatalf("not sorted at %d", j)
			}
		}
	}
	waitGoroutines(t, base)
}

// A deadline-configured sort over a caller-supplied store — one the
// System leaves open — must still stop the deadline layer's executors
// when it tears down, in both I/O modes.
func TestDeadlineCallerStoreNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	in := benchRecords(5000, 37)
	store := pdisk.NewMemStore()
	defer store.Close()
	for _, async := range []bool{false, true} {
		out, _, err := Sort(in, Config{
			D: 4, B: 16, K: 3, Seed: 5, Async: async, Store: store,
			Deadline: &DeadlinePolicy{OpDeadline: time.Minute, HedgeAfter: 30 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(out); j++ {
			if out[j-1].Key > out[j].Key {
				t.Fatalf("async=%v: not sorted at %d", async, j)
			}
		}
	}
	waitGoroutines(t, base)
}

// hangDiskStore parks every block read on one disk, once hung is set,
// until release is closed: a disk that stops answering.
type hangDiskStore struct {
	pdisk.Store
	disk    int
	hung    atomic.Bool
	release chan struct{}
}

func (s *hangDiskStore) ReadBlock(a pdisk.BlockAddr) (pdisk.StoredBlock, error) {
	if a.Disk == s.disk && s.hung.Load() {
		<-s.release
		return pdisk.StoredBlock{}, errors.New("hung read released")
	}
	return s.Store.ReadBlock(a)
}

// An async sort sharing a narrow disk gate must not hang on a disk whose
// reads stop returning once the merge begins: every read it has issued,
// waited on or not, is abandoned at its deadline and gives up its gate
// slot, so the disk's error budget runs out and the sort fails with
// ErrDiskOffline. Step 1 issues every initial read before it waits on
// the first, so reads nobody waits on yet hold the gate.
func TestAsyncGatedHungDiskGoesOffline(t *testing.T) {
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			store := &hangDiskStore{Store: pdisk.NewMemStore(), release: make(chan struct{})}
			defer store.Close()
			defer close(store.release)
			done := make(chan error, 1)
			go func() {
				_, _, err := Sort(benchRecords(20000, 41), Config{
					D: 4, B: 8, K: 3, Seed: 9, Async: true, Store: store,
					Gate:     pdisk.NewDiskGate(4, width),
					Deadline: &DeadlinePolicy{OpDeadline: 20 * time.Millisecond},
					Retry:    &RetryPolicy{MaxAttempts: 100, DiskBudget: 3},
					Progress: func(Progress) { store.hung.Store(true) },
				})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, pdisk.ErrDiskOffline) {
					t.Fatalf("err = %v, want ErrDiskOffline", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("sort still running 30 s after its disk hung")
			}
		})
	}
}
