package pdisk

import (
	"errors"
	"testing"

	"srmsort/internal/record"
)

func mustSystem(t *testing.T, d, b int) *System {
	t.Helper()
	s, err := NewSystem(Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func blk(keys ...record.Key) StoredBlock {
	b := StoredBlock{Records: make(record.Block, len(keys))}
	for i, k := range keys {
		b.Records[i] = record.Record{Key: k, Val: uint64(k)}
	}
	return b
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{D: 0, B: 1}); err == nil {
		t.Fatal("accepted D=0")
	}
	if _, err := NewSystem(Config{D: 1, B: 0}); err == nil {
		t.Fatal("accepted B=0")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := mustSystem(t, 3, 4)
	a := s.Alloc(1)
	in := blk(5, 6, 7)
	in.Forecast = []record.Key{99}
	if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: in}}); err != nil {
		t.Fatal(err)
	}
	out, err := s.ReadBlocks([]BlockAddr{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Records) != 3 || out[0].Records[2].Key != 7 {
		t.Fatalf("round trip gave %+v", out)
	}
	if len(out[0].Forecast) != 1 || out[0].Forecast[0] != 99 {
		t.Fatalf("forecast lost: %+v", out[0].Forecast)
	}
}

func TestOneBlockPerDiskEnforced(t *testing.T) {
	s := mustSystem(t, 2, 2)
	a0, a1 := s.Alloc(0), s.Alloc(0)
	w := []BlockWrite{{Addr: a0, Block: blk(1)}, {Addr: a1, Block: blk(2)}}
	if err := s.WriteBlocks(w); !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("same-disk write err = %v, want ErrDiskConflict", err)
	}
	// Write them legally, then attempt a conflicting read.
	for _, bw := range w {
		if err := s.WriteBlocks([]BlockWrite{bw}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadBlocks([]BlockAddr{a0, a1}); !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("same-disk read err = %v, want ErrDiskConflict", err)
	}
}

func TestOpAndBlockCounting(t *testing.T) {
	s := mustSystem(t, 4, 2)
	var addrs []BlockAddr
	var writes []BlockWrite
	for d := 0; d < 4; d++ {
		a := s.Alloc(d)
		addrs = append(addrs, a)
		writes = append(writes, BlockWrite{Addr: a, Block: blk(record.Key(d))})
	}
	if err := s.WriteBlocks(writes); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlocks(addrs[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlocks(addrs[3:]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WriteOps != 1 || st.BlocksWritten != 4 {
		t.Fatalf("writes: ops=%d blocks=%d, want 1/4", st.WriteOps, st.BlocksWritten)
	}
	if st.ReadOps != 2 || st.BlocksRead != 4 {
		t.Fatalf("reads: ops=%d blocks=%d, want 2/4", st.ReadOps, st.BlocksRead)
	}
	if st.WriteParallelism() != 4.0 {
		t.Fatalf("write parallelism %v, want 4", st.WriteParallelism())
	}
	if st.ReadParallelism() != 2.0 {
		t.Fatalf("read parallelism %v, want 2", st.ReadParallelism())
	}
	if st.PerDiskReads[0] != 1 || st.PerDiskWrites[2] != 1 {
		t.Fatalf("per-disk counters wrong: %v %v", st.PerDiskReads, st.PerDiskWrites)
	}
	s.ResetStats()
	if s.Stats().Ops() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestBalanceMetrics(t *testing.T) {
	s := mustSystem(t, 4, 1)
	// Write 4 blocks to disk 0 and one to each other disk: total 7,
	// busiest 4, even share 7/4, so write balance = 16/7.
	for i := 0; i < 4; i++ {
		a := s.Alloc(0)
		if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	for d := 1; d < 4; d++ {
		a := s.Alloc(d)
		if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if got, want := st.WriteBalance(), 16.0/7.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("WriteBalance = %v, want %v", got, want)
	}
	if st.ReadBalance() != 0 {
		t.Fatalf("ReadBalance with no reads = %v, want 0", st.ReadBalance())
	}
	// Perfectly even reads give balance 1.
	var addrs []BlockAddr
	for d := 0; d < 4; d++ {
		addrs = append(addrs, BlockAddr{Disk: d, Index: 0})
	}
	if _, err := s.ReadBlocks(addrs); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ReadBalance(); got != 1.0 {
		t.Fatalf("even ReadBalance = %v, want 1", got)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	s := mustSystem(t, 2, 1)
	st := s.Stats()
	st.PerDiskReads[0] = 999
	if s.Stats().PerDiskReads[0] != 0 {
		t.Fatal("Stats snapshot aliases internal counters")
	}
}

func TestOversizedBlockRejected(t *testing.T) {
	s := mustSystem(t, 1, 2)
	a := s.Alloc(0)
	err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1, 2, 3)}})
	if err == nil {
		t.Fatal("accepted block larger than B")
	}
}

func TestReadMissingBlock(t *testing.T) {
	s := mustSystem(t, 2, 2)
	if _, err := s.ReadBlocks([]BlockAddr{{Disk: 0, Index: 7}}); err == nil {
		t.Fatal("read of absent block succeeded")
	}
}

func TestAllocDistinct(t *testing.T) {
	s := mustSystem(t, 2, 2)
	seen := map[BlockAddr]bool{}
	for i := 0; i < 10; i++ {
		for d := 0; d < 2; d++ {
			a := s.Alloc(d)
			if seen[a] {
				t.Fatalf("Alloc returned %v twice", a)
			}
			seen[a] = true
		}
	}
}

func TestFreeBlock(t *testing.T) {
	s := mustSystem(t, 1, 1)
	a := s.Alloc(0)
	if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1)}}); err != nil {
		t.Fatal(err)
	}
	ops := s.Stats().Ops()
	if err := s.FreeBlocks(a); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Ops() != ops {
		t.Fatal("FreeBlock counted as I/O")
	}
	if _, err := s.ReadBlocks([]BlockAddr{a}); err == nil {
		t.Fatal("read of freed block succeeded")
	}
	if err := s.FreeBlocks(a); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestStoreOwnershipHandoff(t *testing.T) {
	// The Store contract hands blocks over without a copy both ways: a
	// write passes its block to the store, which keeps it (the writer
	// must not modify it again), and a read hands out the resident block
	// (the reader must not modify it). See the aliascheck build tag for
	// the guard that enforces both sides.
	s := mustSystem(t, 1, 2)
	a, b := s.Alloc(0), s.Alloc(0)
	in, inAsync := blk(1, 2), blk(3, 4)
	if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: in}}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlocksAsync([]BlockWrite{{Addr: b, Block: inAsync}}).Wait(); err != nil {
		t.Fatal(err)
	}
	out, err := s.ReadBlocks([]BlockAddr{a})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0].Records[0] != &in.Records[0] {
		t.Fatal("MemStore read returns a copy of a sync write's block: expected the written slice itself")
	}
	outAsync, err := s.ReadBlocks([]BlockAddr{b})
	if err != nil {
		t.Fatal(err)
	}
	if &outAsync[0].Records[0] != &inAsync.Records[0] {
		t.Fatal("MemStore read returns a copy of an async write's block: expected the written slice itself")
	}
	// Zero-copy reads: successive reads of the same address share backing
	// memory on the in-memory store (no defensive clone on the hot path).
	again, err := s.ReadBlocks([]BlockAddr{a})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0].Records[0] != &again[0].Records[0] {
		t.Fatal("MemStore read path clones: expected zero-copy handoff")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	s, err := NewSystem(Config{D: 3, B: 4, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	in := blk(10, 20, 30)
	in.Forecast = []record.Key{100, 200}
	a := s.Alloc(2)
	if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: in}}); err != nil {
		t.Fatal(err)
	}
	out, err := s.ReadBlocks([]BlockAddr{a})
	if err != nil {
		t.Fatal(err)
	}
	if rs := out[0].Wide(); len(rs) != 3 || rs[1].Key != 20 {
		t.Fatalf("records corrupted: %+v", rs)
	}
	if len(out[0].Forecast) != 2 || out[0].Forecast[1] != 200 {
		t.Fatalf("forecast corrupted: %+v", out[0].Forecast)
	}
}

func TestFileStoreMissingBlock(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := fs.ReadBlock(BlockAddr{Disk: 0, Index: 5}); err == nil {
		t.Fatal("read of absent file slot succeeded")
	}
}

func TestFileStoreRejectsOversize(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.WriteBlock(BlockAddr{}, blk(1, 2, 3)); err == nil {
		t.Fatal("accepted oversize records")
	}
	b := blk(1)
	b.Forecast = []record.Key{1, 2}
	if err := fs.WriteBlock(BlockAddr{}, b); err == nil {
		t.Fatal("accepted oversize forecast")
	}
}

func TestTimeModelAccumulates(t *testing.T) {
	m := Mid1990sDisk()
	s, err := NewSystem(Config{D: 2, B: 1000, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	a := s.Alloc(0)
	if err := s.WriteBlocks([]BlockWrite{{Addr: a, Block: blk(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadBlocks([]BlockAddr{a}); err != nil {
		t.Fatal(err)
	}
	want := 2 * m.OpSeconds(1000)
	got := s.Stats().SimTime
	if got <= 0 || got != want {
		t.Fatalf("SimTime = %v, want %v", got, want)
	}
}

func TestTimeModelOpSeconds(t *testing.T) {
	m := &TimeModel{AvgSeekMS: 10, RotationMS: 8, TransferMBps: 8, RecordBytes: 16}
	// 10ms + 4ms + 1000*16B/8MBps = 14ms + 2ms = 16ms.
	got := m.OpSeconds(1000)
	if got < 0.0159 || got > 0.0161 {
		t.Fatalf("OpSeconds = %v, want 0.016", got)
	}
	// Era presets must be positive and seek-dominated for small blocks.
	for _, tm := range []*TimeModel{Mid1990sDisk(), ModernDisk()} {
		if tm.OpSeconds(1) <= 0 {
			t.Fatal("non-positive op time")
		}
	}
}
