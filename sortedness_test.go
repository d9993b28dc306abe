package srmsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"srmsort/internal/sim"
)

// shapedRecords generates n records with the given sortedness shape
// (internal/sim's presortedness generators), converted to the public
// Record type. Shared by the shape tests here and BenchmarkSortShapes.
func shapedRecords(shape sim.Shape, n int, seed int64) []Record {
	in := sim.GenerateInput(shape, n, seed)
	out := make([]Record, n)
	for i, r := range in {
		out[i] = Record{Key: uint64(r.Key), Val: r.Val}
	}
	return out
}

// shapedVarRecords derives a variable-length input from the same shaped
// key sequence: each key becomes a decimal string whose width varies with
// the key, so lexicographic order differs from numeric order and prefix
// ties occur — the varlen comparator has to work for the sort to.
func shapedVarRecords(shape sim.Shape, n int, seed int64) []VarRecord {
	in := sim.GenerateInput(shape, n, seed)
	out := make([]VarRecord, n)
	for i, r := range in {
		width := 6 + int(r.Key%14) // 6..19 digit keys
		out[i] = VarRecord{
			Key:     []byte(fmt.Sprintf("%0*d", width, uint64(r.Key)%1_000_000)),
			Payload: []byte(fmt.Sprintf("p%d", r.Val%97)),
		}
	}
	return out
}

// TestSortInputShapes runs every algorithm over every sortedness shape —
// near-sorted, reversed-runs, the adversarial up-down zigzag — and
// byte-compares against an in-memory reference sort. The shapes are the
// inputs the run-formation experiments (ROADMAP 5a) will sweep; this
// pins that every engine sorts them correctly today.
func TestSortInputShapes(t *testing.T) {
	const n = 4000
	for _, shape := range sim.Shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			in := shapedRecords(shape, n, 19)
			want := slices.Clone(in)
			slices.SortFunc(want, func(a, b Record) int {
				if a.Key != b.Key {
					if a.Key < b.Key {
						return -1
					}
					return 1
				}
				return 0 // keys are distinct by construction
			})
			for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM, PSV} {
				out, _, err := Sort(in, Config{D: 4, B: 8, K: 3, Algorithm: alg, Seed: 5})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				if !slices.Equal(out, want) {
					t.Fatalf("%v: output differs from reference on %s input", alg, shape)
				}
			}
		})
	}
}

// TestSortVarInputShapes is the varlen wing: the same shaped key
// sequences carried as variable-length records, sorted under both varlen
// codecs and compared against a lexicographic reference.
func TestSortVarInputShapes(t *testing.T) {
	const n = 2500
	cmpVar := func(a, b VarRecord) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Payload, b.Payload)
	}
	for _, shape := range []sim.Shape{sim.ShapeNearSorted, sim.ShapeUpDown} {
		for _, codec := range []string{"varlen", "varlen+flate"} {
			t.Run(shape.String()+"/"+codec, func(t *testing.T) {
				in := shapedVarRecords(shape, n, 23)
				want := slices.Clone(in)
				slices.SortStableFunc(want, cmpVar)
				out, _, err := SortVar(in, Config{D: 4, B: 8, K: 3, Seed: 5, Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != n {
					t.Fatalf("sorted %d of %d records", len(out), n)
				}
				for i := range out {
					if !bytes.Equal(out[i].Key, want[i].Key) || !bytes.Equal(out[i].Payload, want[i].Payload) {
						t.Fatalf("record %d differs from reference", i)
					}
				}
			})
		}
	}
}

// TestSortVarClampedPrefixKeys sorts keys on both sides of the varlen
// prefix clamp: a key whose first 8 bytes are all 0xFF gets the prefix
// word MaxKey−1, which it shares with keys starting ff×7 fe. Every
// algorithm, at one core and at four, must order them lexicographically;
// a clamped key's second prefix word must not put it before a smaller
// key of the same first word.
func TestSortVarClampedPrefixKeys(t *testing.T) {
	const n = 400
	heads := [][]byte{bytes.Repeat([]byte{0xff}, 8), append(bytes.Repeat([]byte{0xff}, 7), 0xfe)}
	tails := []byte{0x00, 0x7f, 0xff}
	rng := rand.New(rand.NewSource(41))
	in := make([]VarRecord, n)
	for i := range in {
		key := slices.Clone(heads[rng.Intn(len(heads))])
		for j := rng.Intn(4); j > 0; j-- {
			key = append(key, tails[rng.Intn(len(tails))])
		}
		in[i] = VarRecord{Key: key, Payload: []byte(fmt.Sprint(i))}
	}
	for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM, PSV} {
		for _, cores := range []int{1, 4} {
			out, _, err := SortVar(in, Config{D: 2, B: 4, K: 2, Algorithm: alg, Cores: cores, Seed: 3})
			if err != nil {
				t.Fatalf("%v cores=%d: %v", alg, cores, err)
			}
			if len(out) != n {
				t.Fatalf("%v cores=%d: sorted %d of %d records", alg, cores, len(out), n)
			}
			inversions := 0
			for i := 1; i < n; i++ {
				if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
					inversions++
				}
			}
			if inversions > 0 {
				t.Errorf("%v cores=%d: %d inversions", alg, cores, inversions)
			}
		}
	}
}
