package srmsort

import (
	"runtime"
	"testing"

	"srmsort/internal/record"
)

// guardSortInput is the input of the small mem sorts the allocation
// guards run: large enough to form several runs and drive a real
// multi-way merge, small enough to keep the guard fast.
func guardSortInput(n int) []Record {
	return benchRecords(n, 17)
}

// TestFixed16SortAllocGuard pins the fixed16 SRM/mem sort's per-record
// allocation figures near their measured levels at this shape: 0.102
// allocs/rec and 85.7 B/rec since a freed block's record array is
// recycled into the blocks the sort writes next (pdisk.NewBlock),
// against 0.133 and 116.8 before (EXPERIMENTS.md, "A sort's heap is its
// data plus M"), and 0.216 and 220 before writes handed their blocks to
// the System (EXPERIMENTS.md, "Blocks change owners"). The bounds sit
// between the recycling and pre-recycling levels and ignore machine
// speed: they trip if recycling is lost, if the write-path clone or the
// per-load copies come back, or on any larger structural regression — a
// GC-visible field re-entering the fixed16 hot path, or a per-record
// allocation sneaking into the kernel.
func TestFixed16SortAllocGuard(t *testing.T) {
	allocs, bytes := sortAllocs(t, Config{D: 4, B: 64, K: 4, Seed: 11})
	t.Logf("fixed16 sort: %.3f allocs/rec, %.1f B/rec", allocs, bytes)
	if allocs > 0.12 {
		t.Errorf("fixed16 sort allocates %.3f objects/rec, want <= 0.12 (measured 0.102; 0.133 without block recycling)", allocs)
	}
	// Measured 85.7 B/rec at GOMAXPROCS 2 to 8 and 57.3 at GOMAXPROCS 1
	// (Cores follows GOMAXPROCS; the multicore merge's buffers cost the
	// difference); without block recycling, 117.1 and 88.7. Raced, 94–95
	// and 67: the race detector drops a quarter of the arrays a sync.Pool
	// is given, at random.
	limit := 100.0
	if runtime.GOMAXPROCS(0) == 1 {
		limit = 72
	}
	if bytes > limit {
		t.Errorf("fixed16 sort allocates %.0f B/rec, want <= %.0f (measured 85.7, 57.3 at GOMAXPROCS 1; 117.1 and 88.7 without block recycling)", bytes, limit)
	}
}

// TestDSMSortAllocGuard pins the fixed16 DSM/mem sort's per-record
// allocation near its level since freed blocks are recycled: 0.081
// allocs/rec and 64 B/rec at this shape with Cores 1, against 0.127 and
// 112 before (EXPERIMENTS.md, "A sort's heap is its data plus M"), and
// 0.156 and 169 when every merge read copied its stripe into one fresh
// logical block (EXPERIMENTS.md, "DSM runs are runio runs"). The bounds
// sit between the recycling and pre-recycling levels: they trip if
// recycling is lost or a per-read copy comes back.
func TestDSMSortAllocGuard(t *testing.T) {
	allocs, bytes := sortAllocs(t, Config{D: 4, B: 64, K: 4, Seed: 11, Algorithm: DSM, Cores: 1})
	t.Logf("DSM sort: %.3f allocs/rec, %.1f B/rec", allocs, bytes)
	if allocs > 0.105 {
		t.Errorf("DSM sort allocates %.3f objects/rec, want <= 0.105 (measured 0.081; 0.127 without block recycling)", allocs)
	}
	if bytes > 88 {
		t.Errorf("DSM sort allocates %.0f B/rec, want <= 88 (measured 64; 111 without block recycling, 169 with the stripe copy)", bytes)
	}
}

// sortAllocs returns the objects and bytes a Sort of the guards' 20,000
// records allocates per record under cfg.
func sortAllocs(t *testing.T, cfg Config) (allocsPerRec, bytesPerRec float64) {
	t.Helper()
	const n = 20_000
	in := guardSortInput(n)

	// Warm up once so lazy initialisation does not count.
	if _, _, err := Sort(in, cfg); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Sort(in, cfg); err != nil {
			t.Fatal(err)
		}
	})

	// Allocated bytes per record: TotalAlloc is cumulative and unaffected
	// by collection, so the delta over a run is deterministic up to pool
	// warm-up; take the minimum of a few runs.
	best := float64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := Sort(in, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / n; b < best {
			best = b
		}
	}
	return allocs / n, best
}

// TestVarlenSortAllocGuard pins the varlen file path to per-block, not
// per-record, allocation: decoded blocks are block-resident (one string
// per block, each record's Ext a substring of it), MakeVar and VarParts
// copy once, and the content comparator splits encodings in place. The
// per-record copies these replaced cost ~12 allocs/rec at this size;
// block-resident decoding brings it to under 3.
func TestVarlenSortAllocGuard(t *testing.T) {
	const n = 20_000
	in := benchVarRecords(n, 17)
	cfg := Config{D: 4, B: 64, K: 4, Seed: 11, Backend: FileBackend, Dir: t.TempDir(), Codec: "varlen"}

	if _, _, err := SortVar(in, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := SortVar(in, cfg); err != nil {
			t.Fatal(err)
		}
	})
	perRec := allocs / n
	t.Logf("varlen file sort: %.2f allocs/rec", perRec)
	if perRec > 4 {
		t.Errorf("varlen file sort allocates %.2f objects/rec, want <= 4 (per-record decode copies cost ~12)", perRec)
	}

	a, err := record.MakeVar([]byte("ACGTACGTACGTA"), []byte("payload-1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := record.MakeVar([]byte("ACGTACGTACGTA"), []byte("payload-2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { record.CompareExt(a.Ext, b.Ext) }); got != 0 {
		t.Errorf("record.CompareExt allocates %.1f objects per call, want 0", got)
	}

	codec := record.Varlen{}
	var blk []record.Record
	for _, v := range in[:64] {
		r, err := record.MakeVar(v.Key, v.Payload)
		if err != nil {
			t.Fatal(err)
		}
		blk = append(blk, r)
	}
	enc, err := codec.AppendBlock(nil, blk)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := codec.DecodeBlock(enc, len(blk)); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Varlen.DecodeBlock of a %d-record block allocates %.1f objects, want <= 2", len(blk), got)
	}
}

// TestVarlenFlateSortAllocGuard pins the varlen+flate file sort's
// allocated bytes per record near plain varlen's: AppendBlock resets a
// pooled flate.Writer and DecodeBlock a pooled inflater, where building
// the compressor and reader state per block cost ~80 KB/rec
// (BENCH_sort.json's SRM/file/D=4 varlen+flate cell before pooling).
func TestVarlenFlateSortAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled flate state at random")
	}
	const n = 20_000
	in := benchVarRecords(n, 17)
	cfg := Config{D: 4, B: 64, K: 4, Seed: 11, Backend: FileBackend, Dir: t.TempDir(), Codec: "varlen+flate"}

	if _, _, err := SortVar(in, cfg); err != nil {
		t.Fatal(err)
	}
	best := float64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := SortVar(in, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / n; b < best {
			best = b
		}
	}
	t.Logf("varlen+flate file sort: %.0f B/rec", best)
	if best > 2000 {
		t.Errorf("varlen+flate file sort allocates %.0f B/rec, want <= 2000 (a flate writer per block cost ~80 KB/rec)", best)
	}
}
