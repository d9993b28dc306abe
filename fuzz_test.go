package srmsort

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"srmsort/internal/ltree"
	"srmsort/internal/pdisk"
	"srmsort/internal/pmerge"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

// FuzzSortStream feeds arbitrary byte streams through the wire decoder and
// the full sorter. Well-formed streams must sort correctly; malformed ones,
// and well-formed ones holding the reserved key 2^64−1, must produce an
// error, never a panic. Run with `go test -fuzz FuzzSortStream` for
// continuous fuzzing; the seeds below and testdata/fuzz/FuzzSortStream
// run in normal test mode.
func FuzzSortStream(f *testing.F) {
	// Seeds: empty, one record, two out-of-order records, a truncated tail.
	f.Add([]byte{})
	one := make([]byte, 16)
	one[0] = 9
	f.Add(one)
	two := make([]byte, 32)
	two[0] = 200
	two[16] = 100
	two[24] = 1
	f.Add(two)
	f.Add(make([]byte, 17))
	f.Add(make([]byte, 160))

	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		stats, err := SortStream(bytes.NewReader(data), &out, Config{D: 3, B: 2, K: 2, Seed: 1})
		if len(data)%RecordWireSize != 0 {
			if err == nil {
				t.Fatalf("malformed stream of %d bytes accepted", len(data))
			}
			return
		}
		if holdsReservedKey(data) {
			if !errors.Is(err, errReservedKey) {
				t.Fatalf("stream holding the reserved key: err = %v, want the reserved-key refusal", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed stream of %d bytes rejected: %v", len(data), err)
		}
		sorted, err := ReadRecords(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(sorted) != len(data)/RecordWireSize {
			t.Fatalf("lost records: %d in, %d out", len(data)/RecordWireSize, len(sorted))
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1].Key > sorted[i].Key {
				t.Fatalf("not sorted at %d", i)
			}
		}
		if stats.TotalOps() < 0 {
			t.Fatal("negative op count")
		}
	})
}

// holdsReservedKey reports whether a fixed16 wire stream holds a record
// with the reserved key 2^64−1.
func holdsReservedKey(data []byte) bool {
	for off := 0; off+RecordWireSize <= len(data); off += RecordWireSize {
		if binary.LittleEndian.Uint64(data[off:]) == ^uint64(0) {
			return true
		}
	}
	return false
}

// FuzzRecordWire round-trips arbitrary record slices through the encoder.
func FuzzRecordWire(f *testing.F) {
	f.Add(uint64(1), uint64(2), 10)
	f.Add(uint64(0), uint64(0), 0)
	f.Add(^uint64(0), uint64(5), 3)
	f.Fuzz(func(t *testing.T, key, val uint64, nRaw int) {
		n := nRaw % 64
		if n < 0 {
			n = -n
		}
		in := make([]Record, n)
		for i := range in {
			in[i] = Record{Key: key + uint64(i), Val: val ^ uint64(i)}
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadRecords(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("%d in, %d out", len(in), len(out))
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("record %d mismatch", i)
			}
		}
	})
}

// FuzzReadRecords feeds arbitrary byte streams to the wire decoder: it must
// accept exactly the streams whose length is a whole number of records and
// never panic on anything.
func FuzzReadRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(make([]byte, 15))
	f.Add(make([]byte, 16))
	f.Add(make([]byte, 31))
	f.Add(make([]byte, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if len(data)%RecordWireSize != 0 {
			if err == nil {
				t.Fatalf("stream of %d bytes (not a record multiple) accepted", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed stream of %d bytes rejected: %v", len(data), err)
		}
		if len(recs) != len(data)/RecordWireSize {
			t.Fatalf("%d bytes decoded to %d records", len(data), len(recs))
		}
		var buf bytes.Buffer
		if err := WriteRecords(&buf, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("decode/encode round trip altered the stream")
		}
	})
}

// perRecordMerge is the pre-gallop reference kernel: one loser-tree
// round-trip per record, ties broken by run index. The galloped kernels
// must reproduce its output byte for byte.
func perRecordMerge(runs [][]record.Record) []record.Record {
	lt := ltree.NewRetired(len(runs))
	heads := make([]int, len(runs))
	total := 0
	for i, r := range runs {
		total += len(r)
		if len(r) > 0 {
			lt.Push(i, uint64(r[0].Key), 0)
		}
	}
	out := make([]record.Record, 0, total)
	for lt.Len() > 0 {
		i, _ := lt.Min()
		out = append(out, runs[i][heads[i]])
		heads[i]++
		if heads[i] == len(runs[i]) {
			lt.Remove(i)
		} else {
			lt.Update(i, uint64(runs[i][heads[i]].Key), 0)
		}
	}
	return out
}

// kernelMerge merges sorted runs through ltree.Kernel the way the
// mergers drive it: each run enters in blocks of blockLen records, and a
// block's end pushes the run's next block — the refill DSM and PSV
// perform and the block event SRM's consumer stops at.
func kernelMerge[R record.KernelRecord](runs [][]R, blockLen int, byVal bool) []R {
	k := ltree.NewKernel[R](len(runs), byVal)
	rest := slices.Clone(runs)
	push := func(i int) {
		if n := min(blockLen, len(rest[i])); n > 0 {
			k.Push(i, rest[i][:n])
			rest[i] = rest[i][n:]
		}
	}
	for i := range runs {
		push(i)
	}
	var out []R
	for {
		h, span, ended := k.Next()
		if h < 0 {
			return out
		}
		out = append(out, span...)
		if ended {
			push(h)
		}
	}
}

// varlenAlphabet is the varlen leg's key universe: short keys, prefix
// ties past the 16 bytes the prefix words cover, and keys of eight 0xFF
// bytes, whose first prefix word the codec clamps onto that of ff×7 fe.
var varlenAlphabet = []string{
	"", "a", "ab", "b",
	"AAAAAAAAAAAAAAAAB", "AAAAAAAAAAAAAAAAAB",
	"\xff\xff\xff\xff\xff\xff\xff\xfe", "\xff\xff\xff\xff\xff\xff\xff\xfe\xff",
	"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	"\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
}

// FuzzGallopMergeEquiv drives the merge kernel (ltree.Kernel, with its
// repeat-winner gallop) against references on adversarial run shapes:
// tiny key universes (runs of duplicate keys spanning block boundaries),
// MaxKey records (a legal key: a retired player's rank, not its key,
// places it after every live one), and block lengths down to 1 (every
// span a single record). Three legs:
//
//  1. Key order, at both record widths, against the per-record loser-tree
//     merge: byte-identical, duplicates in run order.
//  2. (Key, Val) order against record.SortRecords.
//  3. Variable-length records over a tiny alphabet, keys of eight 0xFF
//     bytes included, against record.SortRecords.
//
// It then merges the same runs through the full SRM machinery — sync and
// async, whose outputs must agree with each other and hold the same
// multiset in sorted order.
func FuzzGallopMergeEquiv(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(2), uint8(2))
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint8(2), uint8(1), uint8(3))
	f.Add([]byte{255, 255, 0, 255, 1}, uint8(2), uint8(2), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(4), uint8(4))
	f.Add([]byte{8, 9, 10, 11, 8, 9, 10, 11, 6, 7, 8, 9}, uint8(3), uint8(1), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, numRunsRaw, dRaw, blkRaw uint8) {
		numRuns := 1 + int(numRunsRaw%8)
		d := 1 + int(dRaw%4)
		blockLen := 1 + int(blkRaw%4)
		if len(data) > 512 {
			data = data[:512]
		}
		// One byte per record: a tiny key universe forces duplicate keys;
		// byte 255 maps to MaxKey.
		recs := make([]record.Record, len(data))
		for i, by := range data {
			k := record.Key(by)
			if by == 255 {
				k = record.MaxKey
			}
			recs[i] = record.Record{Key: k, Val: uint64(i % 5)}
		}
		gen := record.NewGenerator(1)
		runs := gen.SplitIntoSortedRuns(recs, numRuns)
		if len(runs) == 0 {
			return
		}

		// Leg 1: key order, duplicates in run order.
		want := perRecordMerge(runs)
		sameRecords(t, "kernel, key order", kernelMerge(runs, blockLen, false), want)
		runs16 := make([][]record.Rec16, len(runs))
		for i, r := range runs {
			for _, rec := range r {
				runs16[i] = append(runs16[i], record.Rec16{Key: rec.Key, Val: rec.Val})
			}
		}
		for i, r := range kernelMerge(runs16, blockLen, false) {
			if r.Wide() != want[i] {
				t.Fatalf("Rec16 kernel, record %d: %+v, reference %+v", i, r, want[i])
			}
		}

		// Leg 2: (Key, Val) order.
		sorted := slices.Clone(recs)
		record.SortRecords(sorted)
		sameRecords(t, "kernel, (key, val) order", kernelMerge(runs, blockLen, true), sorted)

		// Leg 3: variable-length records.
		vrecs := make([]record.Record, len(data))
		for i, by := range data {
			r, err := record.MakeVar([]byte(varlenAlphabet[int(by)%len(varlenAlphabet)]), []byte{by / 64})
			if err != nil {
				t.Fatal(err)
			}
			vrecs[i] = r
		}
		vsorted := slices.Clone(vrecs)
		record.SortRecords(vsorted)
		sameRecords(t, "kernel, varlen order", kernelMerge(gen.SplitIntoSortedRuns(vrecs, numRuns), blockLen, false), vsorted)

		// Full-kernel pass: SRM merge of the same runs, sync and async.
		// MaxKey first keys collide with the forecast sentinel in the FDS,
		// so clip those runs for the end-to-end leg (the in-memory legs
		// above already cover MaxKey records).
		var diskRuns [][]record.Record
		for _, r := range runs {
			for len(r) > 0 && r[len(r)-1].Key == record.MaxKey {
				r = r[:len(r)-1]
			}
			if len(r) > 0 {
				diskRuns = append(diskRuns, r)
			}
		}
		if len(diskRuns) == 0 {
			return
		}
		wantOut := perRecordMerge(diskRuns)
		var outs [2][]record.Record
		for _, async := range []bool{false, true} {
			sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: blockLen, Store: pdisk.NewMemStore()})
			if err != nil {
				t.Fatal(err)
			}
			var stored []*runio.Run
			for id, r := range diskRuns {
				run, err := runio.WriteRun(sys, id, id%d, r)
				if err != nil {
					t.Fatal(err)
				}
				stored = append(stored, run)
			}
			merged, _, err := srm.Merge[record.Record](sys, stored, len(stored), 1000, 0, srm.MergeOpts{Async: async})
			if err != nil {
				t.Fatal(err)
			}
			gotOut, err := runio.ReadAll[record.Record](sys, merged)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotOut) != len(wantOut) {
				t.Fatalf("async=%v: merged %d records, want %d", async, len(gotOut), len(wantOut))
			}
			// SRM's stall guard may emit an equal-keyed record of a higher-
			// indexed active run before a stalled lower-indexed one, so only
			// key order (not Val order) must match the reference exactly.
			for i := range wantOut {
				if gotOut[i].Key != wantOut[i].Key {
					t.Fatalf("async=%v: key %d is %d, want %d", async, i, gotOut[i].Key, wantOut[i].Key)
				}
			}
			if record.Checksum(gotOut) != record.Checksum(wantOut) {
				t.Fatalf("async=%v: merged output is not a permutation of the input", async)
			}
			if async {
				outs[1] = gotOut
			} else {
				outs[0] = gotOut
			}
			sys.Close()
		}
		// Sync and async must agree byte for byte, Vals included.
		for i := range outs[0] {
			if outs[0][i] != outs[1][i] {
				t.Fatalf("record %d: sync %+v, async %+v", i, outs[0][i], outs[1][i])
			}
		}
	})
}

// FuzzSortStreamAsync is FuzzSortStream through the overlapped pipeline:
// malformed streams error (never panic, never hang a disk worker), and
// well-formed streams sort to the same bytes the synchronous configuration
// produces.
func FuzzSortStreamAsync(f *testing.F) {
	f.Add([]byte{})
	one := make([]byte, 16)
	one[0] = 9
	f.Add(one)
	two := make([]byte, 32)
	two[0] = 200
	two[16] = 100
	two[24] = 1
	f.Add(two)
	f.Add(make([]byte, 17))
	f.Add(make([]byte, 160))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{D: 3, B: 2, K: 2, Seed: 1, Async: true}
		var out bytes.Buffer
		_, err := SortStream(bytes.NewReader(data), &out, cfg)
		if len(data)%RecordWireSize != 0 {
			if err == nil {
				t.Fatalf("malformed stream of %d bytes accepted", len(data))
			}
			return
		}
		if holdsReservedKey(data) {
			if !errors.Is(err, errReservedKey) {
				t.Fatalf("stream holding the reserved key: err = %v, want the reserved-key refusal", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed stream of %d bytes rejected: %v", len(data), err)
		}
		cfg.Async = false
		var syncOut bytes.Buffer
		if _, err := SortStream(bytes.NewReader(data), &syncOut, cfg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), syncOut.Bytes()) {
			t.Fatal("async stream output differs from sync")
		}
	})
}

// sameRecords fails the test if two record slices differ anywhere —
// byte-identical output is the contract every parallel path here makes.
func sameRecords(t *testing.T, label string, got, want []record.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// FuzzParallelMergeEquiv fuzzes the multicore merge kernel's one load-
// bearing claim: for ANY runs and ANY shard-boundary placement, the
// sharded merge is byte-identical to the serial merge. Three legs:
//
//  1. Explicit sharding: pmerge.Split at a fuzzed shard count p (1..16,
//     far past the record count for tiny inputs, so zero-record shards
//     are routine), each shard merged serially into its extent — the
//     assembly must equal the one-shot serial merge under both tie-break
//     orders.
//  2. The real cores path: pmerge.Merge with Cores ∈ {2, 3, 8}.
//  3. pmerge.Sort on an amplified copy (large enough that chunked
//     sorting and shard-parallel merge-back genuinely engage) against
//     record.SortRecords.
//
// The byte universe is deliberately tiny (one byte per key) so duplicate
// keys straddle every boundary; byte 255 maps to MaxKey, which the loser
// tree must keep live like any other key; shapes cover duplicate-heavy,
// all-equal, presorted and reversed inputs.
func FuzzParallelMergeEquiv(f *testing.F) {
	f.Add([]byte{}, uint8(3), uint8(16), uint8(0))                         // zero records, 16 shards: all empty
	f.Add([]byte{7}, uint8(8), uint8(16), uint8(0))                        // 1 record, 16 shards: 15 empty
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint8(2), uint8(3), uint8(1))          // all-equal
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(2), uint8(2))    // presorted
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(4), uint8(5), uint8(3)) // reversed
	f.Add([]byte{255, 0, 255, 1, 255, 2}, uint8(2), uint8(4), uint8(0))    // MaxKey-heavy

	f.Fuzz(func(t *testing.T, data []byte, numRunsRaw, pRaw, shapeRaw uint8) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		numRuns := 1 + int(numRunsRaw%8)
		p := 1 + int(pRaw%16)
		keys := append([]byte(nil), data...)
		switch shapeRaw % 4 {
		case 1: // all-equal
			for i := range keys {
				keys[i] = keys[0]
			}
		case 2: // presorted
			slices.Sort(keys)
		case 3: // reversed
			slices.Sort(keys)
			slices.Reverse(keys)
		}
		recs := make([]record.Record, len(keys))
		for i, by := range keys {
			k := record.Key(by)
			if by == 255 {
				k = record.MaxKey
			}
			// A tiny Val universe forces (key, val) ties too, so the
			// KeyVal order's deepest tie-break paths run.
			recs[i] = record.Record{Key: k, Val: uint64(i % 13)}
		}
		gen := record.NewGenerator(1)
		runs := gen.SplitIntoSortedRuns(append([]record.Record(nil), recs...), numRuns)
		total := 0
		for _, r := range runs {
			total += len(r)
		}

		for _, order := range []pmerge.Order{pmerge.KeyRun, pmerge.KeyVal} {
			want := make([]record.Record, total)
			pmerge.Merge(runs, want, 1, order)

			// Leg 1: fuzzed shard-boundary placement, assembled by hand.
			got := make([]record.Record, total)
			shards := pmerge.Split(runs, p, order)
			if len(shards) != p {
				t.Fatalf("Split returned %d shards, want %d", len(shards), p)
			}
			for _, sh := range shards {
				sub := make([][]record.Record, len(runs))
				for i := range runs {
					sub[i] = runs[i][sh.Lo[i]:sh.Hi[i]]
				}
				pmerge.Merge(sub, got[sh.Out:sh.Out+sh.N], 1, order)
			}
			sameRecords(t, "sharded assembly", got, want)

			// Leg 2: the production cores path.
			for _, cores := range []int{2, 3, 8} {
				out := make([]record.Record, total)
				pmerge.Merge(runs, out, cores, order)
				sameRecords(t, "Merge cores path", out, want)
			}
		}

		// Leg 3: amplified parallel sort — enough records that the
		// per-core chunking and shard-parallel merge-back both engage.
		if len(recs) == 0 {
			return
		}
		amp := make([]record.Record, 0, 4500+len(recs))
		for len(amp) < 4500 {
			amp = append(amp, recs...)
		}
		for i := range amp {
			amp[i].Val = uint64(i % 7)
		}
		wantSorted := append([]record.Record(nil), amp...)
		record.SortRecords(wantSorted)
		for _, cores := range []int{2, 3, 8} {
			gotSorted := append([]record.Record(nil), amp...)
			pmerge.Sort(gotSorted, cores)
			sameRecords(t, "Sort cores path", gotSorted, wantSorted)
		}
	})
}

// FuzzTwoWidthKernelEquiv drives one input through both merge-kernel
// widths: the pointer-free record.Rec16 instantiation the fixed16 codec
// selects, and the wide record.Record instantiation every varlen sort
// runs (forced here via the forceWideKernel hook). The two must be
// indistinguishable — identical output records in identical order and
// identical Stats, including every I/O count — across algorithms, disk
// counts, block sizes and degenerate key shapes (duplicate-heavy,
// all-equal, presorted, reversed, near-MaxKey).
func FuzzTwoWidthKernelEquiv(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), uint8(0), uint8(3), uint8(2)) // random, SRM
	f.Add(int64(2), uint16(500), uint8(1), uint8(1), uint8(1), uint8(5)) // all-equal, DSM
	f.Add(int64(3), uint16(800), uint8(2), uint8(2), uint8(2), uint8(3)) // presorted, PSV
	f.Add(int64(4), uint16(650), uint8(3), uint8(0), uint8(0), uint8(0)) // reversed, SRM, D=1
	f.Add(int64(5), uint16(400), uint8(4), uint8(0), uint8(3), uint8(6)) // near-MaxKey keys
	f.Add(int64(6), uint16(0), uint8(0), uint8(1), uint8(1), uint8(1))   // empty input

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, shapeRaw, algRaw, dRaw, bRaw uint8) {
		n := int(nRaw % 2000)
		d := 1 + int(dRaw%4)
		b := 2 + int(bRaw%8)
		alg := []Algorithm{SRM, DSM, PSV}[algRaw%3]
		if alg == PSV && d < 2 {
			alg = SRM
		}
		rng := rand.New(rand.NewSource(seed))
		in := make([]Record, n)
		for i := range in {
			// Clamp below the MaxKey forecast sentinel, as every
			// generator does.
			in[i] = Record{Key: rng.Uint64() >> 1, Val: rng.Uint64()}
		}
		switch shapeRaw % 5 {
		case 1: // all-equal keys: the deepest tie-break paths
			for i := range in {
				in[i].Key = 42
				in[i].Val = uint64(i % 5)
			}
		case 2: // presorted
			slices.SortFunc(in, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
		case 3: // reversed
			slices.SortFunc(in, func(a, b Record) int { return cmp.Compare(b.Key, a.Key) })
		case 4: // keys crowded just below the MaxKey sentinel
			for i := range in {
				in[i].Key = ^uint64(0) - 1 - uint64(rng.Intn(50))
			}
		}
		cfg := Config{D: d, B: b, K: 2, Seed: seed, Algorithm: alg}

		narrow, narrowStats, err := Sort(in, cfg)
		if err != nil {
			t.Fatalf("fixed16 kernel: %v", err)
		}
		forceWideKernel = true
		wide, wideStats, err := Sort(in, cfg)
		forceWideKernel = false
		if err != nil {
			t.Fatalf("wide kernel: %v", err)
		}
		if !slices.Equal(narrow, wide) {
			t.Fatalf("kernel widths disagree on output records (n=%d alg=%v D=%d B=%d)", n, alg, d, b)
		}
		if narrowStats != wideStats {
			t.Fatalf("kernel widths disagree on stats (n=%d alg=%v D=%d B=%d):\n fixed16: %+v\n wide:    %+v",
				n, alg, d, b, narrowStats, wideStats)
		}
	})
}
