package srmsort

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"srmsort/internal/record"
	"srmsort/internal/sim"
)

// TestGoldenOutputDigests pins the sorted output itself, byte for byte,
// from one commit to the next. TestGoldenScheduleCounts pins the I/O
// schedule and the equivalence matrices compare modes within one commit,
// but neither notices a kernel change that reorders equal keys the same
// way in every mode. Each cell hashes the output in order, Vals and
// payloads included, so any reordering of duplicates moves its digest.
// Every mode of a cell (sync and async, mem and file) must reproduce the
// one recorded digest and op count. If an intentional change moves these,
// re-record them deliberately and say why.
//
// The other mergers' cells — DSM, PSV, SRM-deterministic, and SRM and DSM
// at Cores 4 (super-span merging and parallel run formation) — run
// mem/sync only: the equivalence matrices already show that mode and
// backend do not move output. They skip under the race detector, which
// would push the raced root package past go test's default timeout.
func TestGoldenOutputDigests(t *testing.T) {
	const n = 40_000
	type golden struct {
		digest uint64
		ops    int64
	}
	want := map[string]golden{
		"fixed16/uniform":     {0x3e6950b99f63090a, 3886},
		"fixed16/dups":        {0x56109c6c24340b89, 3885},
		"fixed16/near-sorted": {0x4c3731d08d521595, 3885},
		"varlen/uniform":      {0xba32d9c537adbaaa, 3885},
		"varlen/dups":         {0x56e6525599e98df2, 5237},
		"varlen/near-sorted":  {0x92844be641a0b419, 3885},

		"fixed16/uniform/dsm":            {0x3e6950b99f63090a, 6422},
		"fixed16/uniform/psv":            {0x3e6950b99f63090a, 13203},
		"fixed16/uniform/srm-det":        {0x3e6950b99f63090a, 3845},
		"fixed16/uniform/srm/cores4":     {0x3e6950b99f63090a, 3886},
		"fixed16/uniform/dsm/cores4":     {0x3e6950b99f63090a, 6422},
		"fixed16/dups/dsm":               {0x56109c6c24340b89, 6422},
		"fixed16/dups/psv":               {0x56109c6c24340b89, 15858},
		"fixed16/dups/srm-det":           {0x56109c6c24340b89, 3845},
		"fixed16/dups/srm/cores4":        {0x56109c6c24340b89, 3885},
		"fixed16/dups/dsm/cores4":        {0x56109c6c24340b89, 6422},
		"fixed16/near-sorted/dsm":        {0x4c3731d08d521595, 6422},
		"fixed16/near-sorted/psv":        {0x4c3731d08d521595, 18938},
		"fixed16/near-sorted/srm-det":    {0x4c3731d08d521595, 3845},
		"fixed16/near-sorted/srm/cores4": {0x4c3731d08d521595, 3885},
		"fixed16/near-sorted/dsm/cores4": {0x4c3731d08d521595, 6422},
		"varlen/uniform/dsm":             {0xba32d9c537adbaaa, 6422},
		"varlen/uniform/psv":             {0xba32d9c537adbaaa, 13203},
		"varlen/uniform/srm-det":         {0xba32d9c537adbaaa, 3845},
		"varlen/uniform/srm/cores4":      {0xba32d9c537adbaaa, 3885},
		"varlen/uniform/dsm/cores4":      {0xba32d9c537adbaaa, 6422},
		"varlen/dups/dsm":                {0x56e6525599e98df2, 6422},
		"varlen/dups/psv":                {0x56e6525599e98df2, 15585},
		"varlen/dups/srm-det":            {0x56e6525599e98df2, 5202},
		"varlen/dups/srm/cores4":         {0x56e6525599e98df2, 5237},
		"varlen/dups/dsm/cores4":         {0x56e6525599e98df2, 6422},
		"varlen/near-sorted/dsm":         {0x92844be641a0b419, 6422},
		"varlen/near-sorted/psv":         {0x92844be641a0b419, 18938},
		"varlen/near-sorted/srm-det":     {0x92844be641a0b419, 3845},
		"varlen/near-sorted/srm/cores4":  {0x92844be641a0b419, 3885},
		"varlen/near-sorted/dsm/cores4":  {0x92844be641a0b419, 6422},
	}
	type input struct {
		name string
		sort func(Config) (uint64, Stats, error)
	}
	fixed := func(recs []Record) func(Config) (uint64, Stats, error) {
		return func(cfg Config) (uint64, Stats, error) {
			out, st, err := Sort(recs, cfg)
			return digestRecords(out), st, err
		}
	}
	varlen := func(recs []VarRecord) func(Config) (uint64, Stats, error) {
		return func(cfg Config) (uint64, Stats, error) {
			out, st, err := SortVar(recs, cfg)
			return digestVarRecords(out), st, err
		}
	}
	inputs := []input{
		{"fixed16/uniform", fixed(benchRecords(n, 31))},
		{"fixed16/dups", fixed(dupRecords(n, 32))},
		{"fixed16/near-sorted", fixed(shapedRecords(sim.ShapeNearSorted, n, 33))},
		{"varlen/uniform", varlen(benchVarRecords(n, 34))},
		{"varlen/dups", varlen(dupVarRecords(n, 35))},
		{"varlen/near-sorted", varlen(nearSortedVarRecords(n, 36))},
	}
	mergers := []struct {
		name  string
		alg   Algorithm
		cores int
	}{
		{"dsm", DSM, 1},
		{"psv", PSV, 1},
		{"srm-det", SRMDeterministic, 1},
		{"srm/cores4", SRM, 4},
		{"dsm/cores4", DSM, 4},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			for _, mg := range mergers {
				if raceEnabled {
					break
				}
				cfg := Config{D: 4, B: 16, K: 3, Seed: 5, Algorithm: mg.alg, Cores: mg.cores}
				digest, st, err := in.sort(cfg)
				if err != nil {
					t.Fatalf("%s: %v", mg.name, err)
				}
				got := golden{digest, st.TotalOps()}
				if w, ok := want[in.name+"/"+mg.name]; !ok || got != w {
					t.Errorf("%s: output drifted from the recorded digest:\n got {%#x, %d}\nwant {%#x, %d}",
						mg.name, got.digest, got.ops, w.digest, w.ops)
				}
			}
			for _, backend := range []Backend{MemBackend, FileBackend} {
				for _, async := range []bool{false, true} {
					cfg := Config{D: 4, B: 16, K: 3, Seed: 5, Cores: 1, Backend: backend, Async: async}
					if backend == FileBackend {
						cfg.Dir = t.TempDir()
					}
					digest, st, err := in.sort(cfg)
					if err != nil {
						t.Fatalf("%s async=%v: %v", backend, async, err)
					}
					got := golden{digest, st.TotalOps()}
					w, ok := want[in.name]
					if !ok {
						t.Fatalf("%s async=%v: no recorded digest; got {%#x, %d}", backend, async, got.digest, got.ops)
					}
					if got != w {
						t.Errorf("%s async=%v: output drifted from the recorded digest:\n got {%#x, %d}\nwant {%#x, %d}",
							backend, async, got.digest, got.ops, w.digest, w.ops)
					}
				}
			}
		})
	}
}

// digestRecords is an order-dependent FNV-1a hash of a fixed-size
// output, keys and Vals.
func digestRecords(recs []Record) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[0:], r.Key)
		binary.LittleEndian.PutUint64(buf[8:], r.Val)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestVarRecords is digestRecords for variable-length output: each
// key and payload enters the hash behind its length, so no two distinct
// sequences of records share a byte stream.
func digestVarRecords(recs []VarRecord) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range recs {
		for _, b := range [][]byte{r.Key, r.Payload} {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(b)))
			h.Write(buf[:])
			h.Write(b)
		}
	}
	return h.Sum64()
}

// dupRecords draws every key from 8 values, so each repeats about n/8
// times and only the Vals tell equal keys apart.
func dupRecords(n int, seed int64) []Record {
	in := record.NewGenerator(seed).WithDuplicates(n, n/8)
	out := make([]Record, n)
	for i, r := range in {
		out[i] = Record{Key: uint64(r.Key), Val: r.Val}
	}
	return out
}

// dupVarRecords maps dupRecords' 8 keys to strings of different lengths,
// with each record's input position as its payload.
func dupVarRecords(n int, seed int64) []VarRecord {
	keys := [...]string{"a", "ab", "abc", "b", "ba", "bbbbbbbbbb", "c", "cab"}
	out := make([]VarRecord, n)
	for i, r := range dupRecords(n, seed) {
		out[i] = VarRecord{Key: []byte(keys[r.Key]), Payload: []byte(fmt.Sprint(r.Val))}
	}
	return out
}

// nearSortedVarRecords turns the near-sorted key sequence into fixed-width
// decimal keys, so byte order is key order and the input stays
// near-sorted.
func nearSortedVarRecords(n int, seed int64) []VarRecord {
	in := shapedRecords(sim.ShapeNearSorted, n, seed)
	out := make([]VarRecord, n)
	for i, r := range in {
		out[i] = VarRecord{Key: []byte(fmt.Sprintf("%020d", r.Key)), Payload: []byte(fmt.Sprint(r.Val))}
	}
	return out
}
