package main

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// The wrapper must satisfy every optional interface the library probes.
var (
	_ pdisk.SerialStore    = (*timedStore)(nil)
	_ pdisk.FrontierStore  = (*timedStore)(nil)
	_ pdisk.ManifestStore  = (*timedStore)(nil)
	_ pdisk.BlockLister    = (*timedStore)(nil)
	_ pdisk.HealthReporter = (*timedStore)(nil)
)

// bareStore hides every optional capability of the store it embeds.
type bareStore struct{ pdisk.Store }

func block(keys ...uint64) pdisk.StoredBlock {
	rs := make([]record.Rec16, len(keys))
	for i, k := range keys {
		rs[i] = record.Rec16{Key: record.Key(k), Val: k}
	}
	return pdisk.MakeStored(rs, nil)
}

func sortedAddrs(as []pdisk.BlockAddr) []pdisk.BlockAddr {
	out := append([]pdisk.BlockAddr(nil), as...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Disk != out[j].Disk {
			return out[i].Disk < out[j].Disk
		}
		return out[i].Index < out[j].Index
	})
	return out
}

func TestTimedStoreForwardsCapabilities(t *testing.T) {
	mem := pdisk.NewMemStore()
	ts := newTimedStore(mem, time.Now(), true, true)
	for i := 0; i < 3; i++ {
		if err := ts.WriteBlock(pdisk.BlockAddr{Disk: 1, Index: i}, block(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !ts.SerialTransfers() {
		t.Error("SerialTransfers: MemStore's preference was not forwarded")
	}
	got, err := ts.Frontier(1)
	want, _ := mem.Frontier(1)
	if err != nil || got != want || got != 3 {
		t.Errorf("Frontier(1) = %d, %v; inner says %d", got, err, want)
	}
	if err := ts.SaveManifest([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	if data, ok, err := mem.LoadManifest(); err != nil || !ok || string(data) != "m1" {
		t.Errorf("SaveManifest did not reach the inner store: %q %v %v", data, ok, err)
	}
	if data, ok, err := ts.LoadManifest(); err != nil || !ok || string(data) != "m1" {
		t.Errorf("LoadManifest = %q %v %v", data, ok, err)
	}
	if err := ts.ClearManifest(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.LoadManifest(); ok {
		t.Error("ClearManifest did not reach the inner store")
	}
	if !reflect.DeepEqual(sortedAddrs(ts.Blocks()), sortedAddrs(mem.Blocks())) {
		t.Errorf("Blocks = %v, inner %v", ts.Blocks(), mem.Blocks())
	}
	if err := ts.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if ts.HealthSnapshot() != nil {
		t.Error("HealthSnapshot without a deadline layer should be nil")
	}
}

func TestTimedStoreBareInnerAnswersLikeLibraryWrappers(t *testing.T) {
	ts := newTimedStore(bareStore{pdisk.NewMemStore()}, time.Now(), false, false)
	rs := pdisk.NewRetryStore(bareStore{pdisk.NewMemStore()}, pdisk.RetryPolicy{})
	if ts.SerialTransfers() != rs.SerialTransfers() {
		t.Errorf("SerialTransfers = %v, RetryStore says %v", ts.SerialTransfers(), rs.SerialTransfers())
	}
	if n, err := ts.Frontier(0); n != 0 || err != nil {
		t.Errorf("Frontier = %d, %v; want 0, nil", n, err)
	}
	if err := ts.SaveManifest([]byte("x")); !errors.Is(err, pdisk.ErrInvalid) {
		t.Errorf("SaveManifest = %v; want ErrInvalid", err)
	}
	if data, ok, err := ts.LoadManifest(); data != nil || ok || err != nil {
		t.Errorf("LoadManifest = %q %v %v", data, ok, err)
	}
	if ts.Blocks() != nil {
		t.Error("Blocks of a store that cannot list should be nil")
	}
	if ts.Counts() != (pdisk.RetryCounts{}) {
		t.Error("Counts without a retry layer should be zero")
	}
}

func TestTimedStoreCountsAndTimesCalls(t *testing.T) {
	ts := newTimedStore(pdisk.NewMemStore(), time.Now(), true, true)
	a := pdisk.BlockAddr{Disk: 0, Index: 0}
	if err := ts.WriteBlock(a, block(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.ReadBlock(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.ReadBlock(pdisk.BlockAddr{Disk: 0, Index: 9}); err == nil {
		t.Error("reading an absent block should fail through the wrapper")
	}
	if err := ts.Free(a); err != nil {
		t.Fatal(err)
	}
	got := ts.tally()
	if got.calls != [numOps]int64{2, 1, 1} {
		t.Errorf("calls = %v; want 2 reads, 1 write, 1 free", got.calls)
	}
	if len(got.log) != 4 || !got.sawRead || got.peak != 32 {
		t.Errorf("log %d calls, sawRead %v, peak %d bytes; want 4, true, 32", len(got.log), got.sawRead, got.peak)
	}
	for i, iv := range got.log {
		if iv.end < iv.start || (i > 0 && iv.start < got.log[i-1].start) {
			t.Errorf("log not sorted well-formed intervals: %v", got.log)
		}
	}
}

// A sort over the wrapper must take the same path and report the same
// Stats as one over the bare store — checkpointing (manifest forwarding)
// and the retry/deadline stack (counts and health forwarding) included.
func TestTimedStoreSortIsEquivalent(t *testing.T) {
	recs := make([]srmsort.Record, 20_000)
	for i := range recs {
		recs[i] = srmsort.Record{Key: uint64(i*7919) % 20011, Val: uint64(i)}
	}
	base := srmsort.Config{D: 4, B: 16, K: 3, Seed: 5, Cores: 1, Checkpoint: true}
	want, wantStats, err := srmsort.Sort(recs, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, async := range []bool{false, true} {
		cfg := base
		cfg.Async = async
		retry, deadline := jobPolicies(5)
		t3 := newTimedStore(pdisk.NewMemStore(), time.Now(), false, true)
		t2 := newTimedStore(pdisk.NewDeadlineStore(t3, *deadline), time.Now(), false, false)
		cfg.Store = newTimedStore(pdisk.NewRetryStore(t2, *retry), time.Now(), true, false)
		got, st, err := srmsort.Sort(recs, cfg)
		cfg.Store.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !sameStats(st, wantStats) {
			t.Errorf("async=%v: wrapped sort diverged: stats %+v, want %+v", async, st, wantStats)
		}
		if st.Health == nil {
			t.Errorf("async=%v: the deadline layer's health did not reach Stats through the wrappers", async)
		}
		if t3.tally().calls[opRead] == 0 {
			t.Errorf("async=%v: the bottom wrapper saw no reads", async)
		}
	}
}
