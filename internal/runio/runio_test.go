package runio

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

func newSys(t *testing.T, d, b int) *pdisk.System {
	t.Helper()
	s, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sortedRecords(n int, seed int64) []record.Record {
	return record.NewGenerator(seed).Sorted(n)
}

func TestWriteReadRoundTrip(t *testing.T) {
	sys := newSys(t, 4, 8)
	recs := sortedRecords(100, 1)
	run, err := WriteRun(sys, 0, 2, recs)
	if err != nil {
		t.Fatal(err)
	}
	if run.Records != 100 || run.NumBlocks() != 13 {
		t.Fatalf("run has %d records in %d blocks, want 100 in 13", run.Records, run.NumBlocks())
	}
	got, err := ReadAll[record.Record](sys, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], recs[i])
		}
	}
}

func TestCyclicStriping(t *testing.T) {
	sys := newSys(t, 3, 4)
	run, err := WriteRun(sys, 0, 1, sortedRecords(40, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < run.NumBlocks(); i++ {
		want := (1 + i) % 3
		if run.Disk(i) != want || run.Addr(i).Disk != want {
			t.Fatalf("block %d on disk %d, want %d", i, run.Disk(i), want)
		}
	}
}

func TestPerfectWriteParallelism(t *testing.T) {
	for _, tc := range []struct{ d, b, n int }{
		{4, 8, 256}, // 32 blocks, exact stripes
		{4, 8, 250}, // partial last block, 32 blocks
		{4, 8, 200}, // 25 blocks -> 7 ops
		{5, 3, 3},   // single block
		{3, 4, 0},   // empty run
	} {
		sys := newSys(t, tc.d, tc.b)
		run, err := WriteRun(sys, 0, 0, sortedRecords(tc.n, 3))
		if err != nil {
			t.Fatal(err)
		}
		wantOps := int64((run.NumBlocks() + tc.d - 1) / tc.d)
		if got := sys.Stats().WriteOps; got != wantOps {
			t.Fatalf("D=%d B=%d N=%d: %d write ops for %d blocks, want %d",
				tc.d, tc.b, tc.n, got, run.NumBlocks(), wantOps)
		}
	}
}

func TestForecastFormat(t *testing.T) {
	sys := newSys(t, 3, 2)
	recs := sortedRecords(20, 4) // 10 blocks, D=3
	run, err := WriteRun(sys, 0, 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]pdisk.StoredBlock, run.NumBlocks())
	var firstKeys []record.Key
	for i := range blocks {
		got, err := sys.ReadBlocks([]pdisk.BlockAddr{run.Addr(i)})
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = got[0]
		firstKeys = append(firstKeys, got[0].Records.FirstKey())
	}
	// Block 0 must announce first keys of blocks 1..D.
	if len(blocks[0].Forecast) != 3 {
		t.Fatalf("block 0 carries %d forecast keys, want D=3", len(blocks[0].Forecast))
	}
	for j := 1; j <= 3; j++ {
		if blocks[0].Forecast[j-1] != firstKeys[j] {
			t.Fatalf("block 0 forecast[%d] = %d, want first key of block %d (%d)",
				j-1, blocks[0].Forecast[j-1], j, firstKeys[j])
		}
	}
	// Block i>0 must announce the first key of block i+D, MaxKey past the end.
	for i := 1; i < run.NumBlocks(); i++ {
		if len(blocks[i].Forecast) != 1 {
			t.Fatalf("block %d carries %d forecast keys, want 1", i, len(blocks[i].Forecast))
		}
		want := record.MaxKey
		if i+3 < run.NumBlocks() {
			want = firstKeys[i+3]
		}
		if blocks[i].Forecast[0] != want {
			t.Fatalf("block %d forecast = %d, want %d", i, blocks[i].Forecast[0], want)
		}
	}
}

func TestForecastShortRun(t *testing.T) {
	// A run shorter than D blocks: block 0's forecast pads with MaxKey.
	sys := newSys(t, 4, 5)
	run, err := WriteRun(sys, 0, 3, sortedRecords(8, 5)) // 2 blocks
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadBlocks([]pdisk.BlockAddr{run.Addr(0)})
	if err != nil {
		t.Fatal(err)
	}
	fc := got[0].Forecast
	if len(fc) != 4 {
		t.Fatalf("forecast has %d keys, want 4", len(fc))
	}
	if fc[0] == record.MaxKey {
		t.Fatal("existing successor forecast is MaxKey")
	}
	for j := 1; j < 4; j++ {
		if fc[j] != record.MaxKey {
			t.Fatalf("missing successor forecast[%d] = %d, want MaxKey", j, fc[j])
		}
	}
}

func TestWriterBuffersAtMost2DBlocks(t *testing.T) {
	// The writer's buffered block count must never exceed 2D (the M_W
	// output buffer of Definition 3). We observe it via the gap between
	// records appended and records written to the store.
	d, b := 4, 3
	sys := newSys(t, d, b)
	w := NewWriter[record.Record](sys, 0, 0)
	recs := sortedRecords(200, 6)
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		buffered := int64(i+1) - sys.Stats().BlocksWritten*int64(b)
		if maxBuf := int64(2 * d * b); buffered > maxBuf {
			t.Fatalf("after %d appends the writer buffers %d records > 2DB=%d",
				i+1, buffered, maxBuf)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPanicsOutOfOrder(t *testing.T) {
	sys := newSys(t, 2, 2)
	w := NewWriter[record.Record](sys, 0, 0)
	if err := w.Append(record.Record{Key: 5}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append accepted")
		}
	}()
	_ = w.Append(record.Record{Key: 4})
}

func TestPlacements(t *testing.T) {
	stag := StaggeredPlacement{D: 4}
	for seq := 0; seq < 9; seq++ {
		if got := stag.StartDisk(seq); got != seq%4 {
			t.Fatalf("staggered StartDisk(%d) = %d, want %d", seq, got, seq%4)
		}
	}
	fix := FixedPlacement{Disk: 2}
	for seq := 0; seq < 5; seq++ {
		if fix.StartDisk(seq) != 2 {
			t.Fatal("fixed placement moved")
		}
	}
	rnd := &RandomPlacement{D: 8, Rng: rand.New(rand.NewSource(1))}
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		d := rnd.StartDisk(i)
		if d < 0 || d >= 8 {
			t.Fatalf("random placement out of range: %d", d)
		}
		counts[d]++
	}
	for d, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("random placement disk %d chosen %d/8000 times; biased: %v", d, c, counts)
		}
	}
}

func TestFreeReleasesBlocks(t *testing.T) {
	sys := newSys(t, 3, 4)
	run, err := WriteRun(sys, 0, 0, sortedRecords(30, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := Free(sys, run); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ReadBlocks([]pdisk.BlockAddr{run.Addr(0)}); err == nil {
		t.Fatal("read of freed run block succeeded")
	}
}

// Property: for arbitrary D, B, N the round trip preserves records and the
// write-op count is exactly ceil(blocks/D).
func TestPropertyRoundTripAndOps(t *testing.T) {
	f := func(seed int64, dRaw, bRaw, nRaw uint8) bool {
		d := int(dRaw)%6 + 1
		b := int(bRaw)%7 + 1
		n := int(nRaw) * 3
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
		if err != nil {
			return false
		}
		recs := sortedRecords(n, seed)
		run, err := WriteRun(sys, 0, int(uint8(seed))%d, recs)
		if err != nil {
			return false
		}
		wantBlocks := (n + b - 1) / b
		if run.NumBlocks() != wantBlocks {
			return false
		}
		if sys.Stats().WriteOps != int64((wantBlocks+d-1)/d) {
			return false
		}
		got, err := ReadAll[record.Record](sys, run)
		if err != nil || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterMisusePanics(t *testing.T) {
	sys := newSys(t, 2, 2)
	cases := map[string]func(){
		"bad start disk": func() { NewWriter[record.Record](sys, 0, 2) },
		"append after finish": func() {
			w := NewWriter[record.Record](sys, 0, 0)
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			_ = w.Append(record.Record{Key: 1})
		},
		"double finish": func() {
			w := NewWriter[record.Record](sys, 0, 0)
			if _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			_, _ = w.Finish()
		},
		"addr out of range": func() {
			run, err := WriteRun(sys, 0, 0, sortedRecords(4, 1))
			if err != nil {
				t.Fatal(err)
			}
			run.Addr(run.NumBlocks())
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStreamMatchesReadAll(t *testing.T) {
	sys := newSys(t, 3, 4)
	run, err := WriteRun(sys, 0, 1, sortedRecords(50, 9))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadAll[record.Record](sys, run)
	if err != nil {
		t.Fatal(err)
	}
	var got []record.Record
	if err := Stream[record.Record](sys, run, func(r record.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Stream yielded %d records, ReadAll %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestStreamPropagatesCallbackError(t *testing.T) {
	sys := newSys(t, 2, 2)
	run, err := WriteRun(sys, 0, 0, sortedRecords(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	count := 0
	err = Stream[record.Record](sys, run, func(record.Record) error {
		count++
		if count == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if count != 3 {
		t.Fatalf("callback ran %d times after error", count)
	}
}

// parkStore lets its first free reads through and parks every later one
// until release closes, counting the reads in flight.
type parkStore struct {
	*pdisk.MemStore
	free     atomic.Int64
	inflight atomic.Int64
	release  chan struct{}
}

func (s *parkStore) ReadBlock(a pdisk.BlockAddr) (pdisk.StoredBlock, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.free.Add(-1) < 0 {
		<-s.release
	}
	return s.MemStore.ReadBlock(a)
}

// When fn fails, StreamAsync waits for its read-ahead before it returns:
// no read it issued outlives the call.
func TestStreamAsyncWaitsForReadAhead(t *testing.T) {
	st := &parkStore{MemStore: pdisk.NewMemStore(), release: make(chan struct{})}
	sys, err := pdisk.NewSystem(pdisk.Config{D: 2, B: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	run, err := WriteRun(sys, 0, 0, sortedRecords(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	st.free.Store(2) // the first stripe; its read-ahead parks
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(st.release)
	}()
	stop := errors.New("stop")
	err = StreamAsync(sys, run, func(record.Record) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("StreamAsync = %v, want the callback's error", err)
	}
	select {
	case <-st.release:
	default:
		t.Fatal("StreamAsync returned before its parked read-ahead was released")
	}
	if n := st.inflight.Load(); n != 0 {
		t.Fatalf("%d store reads still in flight after StreamAsync returned", n)
	}
}
