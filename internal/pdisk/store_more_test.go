package pdisk

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"srmsort/internal/record"
)

func TestFaultStoreInPackage(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		FailWriteAt: 2,
		FailReadAt:  2,
		FailFreeAt:  1,
	})
	a := BlockAddr{Disk: 0, Index: 0}
	if err := fs.WriteBlock(a, blk(1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteBlock(BlockAddr{Disk: 0, Index: 1}, blk(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write #2 err = %v", err)
	}
	if _, err := fs.ReadBlock(a); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadBlock(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("read #2 err = %v", err)
	}
	if _, err := fs.ReadBlock(a); err != nil {
		t.Fatalf("read #3 should recover: %v", err)
	}
	if err := fs.Free(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("free #1 err = %v", err)
	}
	if err := fs.Free(a); err != nil {
		t.Fatalf("free #2 should recover: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// Seed-driven probabilistic faults are deterministic: two stores with the
// same seed inject on exactly the same operations, a different seed on a
// different schedule, the n-th read's fate does not depend on how many
// writes interleave, and a read's fate depends on its address and attempt,
// not on the order in which reads of different addresses arrive (as a
// System's concurrent per-disk transfers deliver them).
func TestFaultStoreSeededDeterministic(t *testing.T) {
	fates := func(seed int64, interleaveWrites bool) []bool {
		fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: seed, ReadFailProb: 0.3})
		a := BlockAddr{Disk: 0, Index: 0}
		if err := fs.WriteBlock(a, blk(1)); err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 40; i++ {
			if interleaveWrites {
				if err := fs.WriteBlock(a, blk(2)); err != nil {
					t.Fatal(err)
				}
			}
			_, err := fs.ReadBlock(a)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			out = append(out, err != nil)
		}
		return out
	}
	base := fates(7, false)
	again := fates(7, false)
	interleaved := fates(7, true)
	other := fates(8, false)
	injected := 0
	for i := range base {
		if base[i] != again[i] || base[i] != interleaved[i] {
			t.Fatalf("read #%d fate not deterministic", i+1)
		}
		if base[i] {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("ReadFailProb=0.3 injected nothing in 40 reads")
	}
	same := 0
	for i := range base {
		if base[i] == other[i] {
			same++
		}
	}
	if same == len(base) {
		t.Fatal("different seeds produced identical schedules")
	}

	byAddr := func(reverse bool) map[BlockAddr][]bool {
		fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 7, ReadFailProb: 0.3})
		addrs := make([]BlockAddr, 8)
		for i := range addrs {
			addrs[i] = BlockAddr{Disk: i % 4, Index: i / 4}
			if err := fs.WriteBlock(addrs[i], blk(1)); err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[BlockAddr][]bool)
		for round := 0; round < 5; round++ {
			for i := range addrs {
				a := addrs[i]
				if reverse {
					a = addrs[len(addrs)-1-i]
				}
				_, err := fs.ReadBlock(a)
				out[a] = append(out[a], err != nil)
			}
		}
		return out
	}
	if fwd, rev := byAddr(false), byAddr(true); !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("read fates depend on arrival order:\n%v\n%v", fwd, rev)
	}
}

// MaxLatency must delay operations without failing them. The delays go
// through the injected Sleep, so the test records them instead of
// actually waiting.
func TestFaultStoreLatencyOnly(t *testing.T) {
	var mu sync.Mutex
	var slept []time.Duration
	fs := NewFaultStore(NewMemStore(), FaultConfig{
		Seed:       1,
		MaxLatency: time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	a := BlockAddr{Disk: 0, Index: 0}
	if err := fs.WriteBlock(a, blk(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := fs.ReadBlock(a); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) == 0 {
		t.Fatal("no delays recorded")
	}
	for _, d := range slept {
		if d < 0 || d >= time.Millisecond {
			t.Fatalf("delay %v outside [0, MaxLatency)", d)
		}
	}
}

func TestSystemAccessorsAndClose(t *testing.T) {
	s := mustSystem(t, 3, 7)
	if s.D() != 3 || s.B() != 7 {
		t.Fatalf("D=%d B=%d", s.D(), s.B())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreBlocksAndClose(t *testing.T) {
	m := NewMemStore()
	if err := m.WriteBlock(BlockAddr{Disk: 0, Index: 0}, blk(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBlock(BlockAddr{Disk: 1, Index: 0}, blk(2)); err != nil {
		t.Fatal(err)
	}
	if len(m.Blocks()) != 2 {
		t.Fatalf("Blocks = %d", len(m.Blocks()))
	}
	if u := m.Usage(); u.Blocks != 2 || u.Bytes != 2*16 {
		t.Fatalf("Usage = %+v, want 2 blocks / 32 bytes", u)
	}
	// Overwriting must not double-count; freeing must release.
	if err := m.WriteBlock(BlockAddr{Disk: 0, Index: 0}, blk(3, 4)); err != nil {
		t.Fatal(err)
	}
	if u := m.Usage(); u.Blocks != 2 || u.Bytes != 3*16 {
		t.Fatalf("Usage after overwrite = %+v, want 2 blocks / 48 bytes", u)
	}
	if err := m.Free(BlockAddr{Disk: 1, Index: 0}); err != nil {
		t.Fatal(err)
	}
	if u := m.Usage(); u.Blocks != 1 || u.Bytes != 2*16 {
		t.Fatalf("Usage after free = %+v, want 1 block / 32 bytes", u)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAddrsEdgeCases(t *testing.T) {
	s := mustSystem(t, 2, 2)
	if _, err := s.ReadBlocks(nil); err == nil {
		t.Fatal("empty op accepted")
	}
	if _, err := s.ReadBlocks([]BlockAddr{{0, 0}, {1, 0}, {0, 1}}); err == nil {
		t.Fatal("more blocks than disks accepted")
	}
	if _, err := s.ReadBlocks([]BlockAddr{{Disk: 5, Index: 0}}); err == nil {
		t.Fatal("out-of-range disk accepted")
	}
	if _, err := s.ReadBlocks([]BlockAddr{{Disk: 0, Index: -1}}); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestNewFileStoreValidation(t *testing.T) {
	if _, err := NewFileStore(t.TempDir(), 0, 1); err == nil {
		t.Fatal("B=0 accepted")
	}
	if _, err := NewFileStore(t.TempDir(), 1, -1); err == nil {
		t.Fatal("negative forecast accepted")
	}
}

func TestFileStoreFreeValidates(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Free(BlockAddr{Disk: -1}); err == nil {
		t.Fatal("invalid free accepted")
	}
	// Freeing an absent block is an error on every backend.
	if err := fs.Free(BlockAddr{Disk: 0, Index: 3}); err == nil {
		t.Fatal("free of absent block accepted")
	}
	a := BlockAddr{Disk: 0, Index: 3}
	if err := fs.WriteBlock(a, blk(1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(a); err != nil {
		t.Fatalf("valid free rejected: %v", err)
	}
	if err := fs.Free(a); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestParallelismZeroOps(t *testing.T) {
	var st Stats
	if st.ReadParallelism() != 0 || st.WriteParallelism() != 0 {
		t.Fatal("zero-op parallelism not zero")
	}
	if st.Ops() != 0 {
		t.Fatal("Ops not zero")
	}
}

func TestTimeModelPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero transfer rate accepted")
		}
	}()
	(&TimeModel{AvgSeekMS: 1, RotationMS: 1}).OpSeconds(10)
}

// MemStore's slot directory: Frontier and Blocks see across chunk
// boundaries, a chunk goes once its last block is freed (and comes back
// on the next write into it), and a freed slot keeps no reference to its
// records.
func TestMemStoreChunkedSlots(t *testing.T) {
	m := NewMemStore()
	const disk, n = 2, 2*memChunkSlots + 88
	for i := 0; i < n; i++ {
		if err := m.WriteBlock(BlockAddr{Disk: disk, Index: i}, blk(record.Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	frontier := func(want int) {
		t.Helper()
		if got, err := m.Frontier(disk); err != nil || got != want {
			t.Fatalf("Frontier = %d, %v; want %d", got, err, want)
		}
	}
	frontier(n)
	for i := memChunkSlots; i < 2*memChunkSlots; i++ {
		if err := m.Free(BlockAddr{Disk: disk, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	if m.disks[disk][1] != nil {
		t.Fatal("chunk 1 kept after its last block was freed")
	}
	if _, err := m.ReadBlock(BlockAddr{Disk: disk, Index: memChunkSlots}); !errors.Is(err, ErrAbsent) {
		t.Fatalf("read in a dropped chunk: %v, want ErrAbsent", err)
	}
	frontier(n)
	if err := m.Free(BlockAddr{Disk: disk, Index: n - 1}); err != nil {
		t.Fatal(err)
	}
	if s := m.disks[disk][2].slots[(n-1)%memChunkSlots]; s.present || s.b.Recs16 != nil || s.b.Records != nil || s.b.Forecast != nil {
		t.Fatalf("freed slot not zeroed: %+v", s)
	}
	frontier(n - 1)
	for i := 2 * memChunkSlots; i < n-1; i++ {
		if err := m.Free(BlockAddr{Disk: disk, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	frontier(memChunkSlots)
	if err := m.WriteBlock(BlockAddr{Disk: disk, Index: memChunkSlots + 5}, blk(7)); err != nil {
		t.Fatal(err)
	}
	frontier(memChunkSlots + 6)
	if got := len(m.Blocks()); got != memChunkSlots+1 {
		t.Fatalf("Blocks lists %d, want %d", got, memChunkSlots+1)
	}
	if u := m.Usage(); u.Blocks != memChunkSlots+1 {
		t.Fatalf("Usage = %+v, want %d blocks", u, memChunkSlots+1)
	}
	if f, err := m.Frontier(disk + 1); err != nil || f != 0 {
		t.Fatalf("Frontier of an unused disk = %d, %v", f, err)
	}
	if err := m.WriteBlock(BlockAddr{Disk: 0, Index: -1}, blk(1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("write to a negative index: %v, want ErrInvalid", err)
	}
}
