package pmerge

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"srmsort/internal/record"
)

// shape is a named family of sorted input sequences exercising a
// particular duplicate/sentinel structure.
type shape struct {
	name string
	seqs [][]record.Record
}

// testShapes builds the input families the splitter and merge are tested
// against: distinct random keys, duplicate-heavy, all-equal keys,
// presorted with degenerate runs, reversed-then-run-formed, MaxKey keys
// (including one sequence that is entirely MaxKey, so its loser tree
// player holds the maximal key while live), and tiny/empty inputs that
// force zero-record shards.
func testShapes(seed int64) []shape {
	g := record.NewGenerator(seed)
	var out []shape
	add := func(name string, seqs [][]record.Record) {
		out = append(out, shape{name, seqs})
	}
	add("random", g.SplitIntoSortedRuns(g.Random(5000), 7))
	add("dups", g.SplitIntoSortedRuns(g.WithDuplicates(5000, 16), 5))
	allEq := make([]record.Record, 3000)
	for i := range allEq {
		allEq[i] = record.Record{Key: 42, Val: uint64(i % 97)}
	}
	add("allequal", g.SplitIntoSortedRuns(allEq, 6))
	add("presorted", [][]record.Record{g.Sorted(4000), g.Sorted(50), nil, g.Sorted(1)})
	add("reversed", g.SplitIntoSortedRuns(g.Reversed(3000), 8))
	mk := g.WithDuplicates(2000, 4)
	for i := 0; i < 200; i++ {
		mk[i].Key = record.MaxKey
	}
	mkSeqs := g.SplitIntoSortedRuns(mk, 4)
	inf := make([]record.Record, 64)
	for i := range inf {
		inf[i] = record.Record{Key: record.MaxKey, Val: uint64(i)}
	}
	add("maxkey", append(mkSeqs, inf))
	add("tiny", [][]record.Record{
		{{Key: 3, Val: 1}},
		{},
		{{Key: 3, Val: 0}, {Key: 5, Val: 9}},
	})
	add("empty", [][]record.Record{nil, {}, nil})
	return out
}

func cloneSeqs(seqs [][]record.Record) [][]record.Record {
	out := make([][]record.Record, len(seqs))
	for i, s := range seqs {
		out[i] = append([]record.Record(nil), s...)
	}
	return out
}

func totalLen(seqs [][]record.Record) int {
	n := 0
	for _, s := range seqs {
		n += len(s)
	}
	return n
}

// refMerge is the O(n log n) reference: tag every record with its
// (sequence, position) and sort under the full total order, which both
// the serial kernel and every shard must reproduce.
func refMerge(seqs [][]record.Record, order Order) []record.Record {
	type tag struct {
		r        record.Record
		seq, pos int
	}
	var all []tag
	for i, s := range seqs {
		for j, r := range s {
			all = append(all, tag{r, i, j})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.r.Key != b.r.Key {
			return a.r.Key < b.r.Key
		}
		if order == KeyVal && a.r.Val != b.r.Val {
			return a.r.Val < b.r.Val
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.pos < b.pos
	})
	out := make([]record.Record, len(all))
	for i, t := range all {
		out[i] = t.r
	}
	return out
}

func encode(rs []record.Record) []byte {
	var buf bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&buf, "%016x%016x", uint64(r.Key), r.Val)
	}
	return buf.Bytes()
}

func orderName(o Order) string {
	if o == KeyVal {
		return "KeyVal"
	}
	return "KeyRun"
}

// TestSplitProperties is the binsplit property test: for every input
// family, order and shard count, the shard extents must tile the inputs
// (disjoint, covering every record exactly once), tile the output at the
// documented rank cuts, and respect the tie-break order — each shard,
// merged on its own, must reproduce exactly its slice of the reference
// order, including when MaxKey records keep loser-tree players live at
// the maximal key and when shards receive zero records.
func TestSplitProperties(t *testing.T) {
	for _, sh := range testShapes(1) {
		for _, order := range []Order{KeyRun, KeyVal} {
			for _, p := range []int{1, 2, 3, 5, 8, 16} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", sh.name, orderName(order), p), func(t *testing.T) {
					seqs := cloneSeqs(sh.seqs)
					total := totalLen(seqs)
					shards := Split(seqs, p, order)
					if len(shards) != p {
						t.Fatalf("got %d shards, want %d", len(shards), p)
					}
					ref := refMerge(seqs, order)
					sumN := 0
					for s, shard := range shards {
						// Tiling of the inputs: shard 0 starts at 0, the
						// last shard ends at the sequence lengths, and
						// consecutive shards meet exactly.
						for i := range seqs {
							if s == 0 && shard.Lo[i] != 0 {
								t.Fatalf("shard 0 Lo[%d]=%d", i, shard.Lo[i])
							}
							if s == p-1 && shard.Hi[i] != len(seqs[i]) {
								t.Fatalf("last shard Hi[%d]=%d, want %d", i, shard.Hi[i], len(seqs[i]))
							}
							if s > 0 && shards[s-1].Hi[i] != shard.Lo[i] {
								t.Fatalf("shard %d Lo[%d]=%d != shard %d Hi[%d]=%d",
									s, i, shard.Lo[i], s-1, i, shards[s-1].Hi[i])
							}
							if shard.Lo[i] > shard.Hi[i] {
								t.Fatalf("shard %d inverted extent [%d,%d) in seq %d",
									s, shard.Lo[i], shard.Hi[i], i)
							}
						}
						// Output tiling at the documented rank cuts.
						if want := s * total / p; shard.Out != want {
							t.Fatalf("shard %d Out=%d, want rank cut %d", s, shard.Out, want)
						}
						n := 0
						for i := range seqs {
							n += shard.Hi[i] - shard.Lo[i]
						}
						if n != shard.N {
							t.Fatalf("shard %d N=%d but extents hold %d", s, shard.N, n)
						}
						sumN += n
						// Order: the shard merged alone reproduces its
						// slice of the reference sequence byte for byte.
						sub := make([][]record.Record, len(seqs))
						for i := range seqs {
							sub[i] = seqs[i][shard.Lo[i]:shard.Hi[i]]
						}
						got := make([]record.Record, n)
						Merge(sub, got, 1, order)
						if !bytes.Equal(encode(got), encode(ref[shard.Out:shard.Out+n])) {
							t.Fatalf("shard %d output diverges from reference ranks [%d,%d)",
								s, shard.Out, shard.Out+n)
						}
					}
					if sumN != total {
						t.Fatalf("shards cover %d records, want %d", sumN, total)
					}
				})
			}
		}
	}
}

func TestSplitRejectsZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(p=0) did not panic")
		}
	}()
	Split([][]record.Record{{{Key: 1}}}, 0, KeyRun)
}

// TestMergeMatchesSerial checks the user-facing guarantee: Merge with any
// core count produces bytes identical to the reference order, and leaves
// its inputs intact.
func TestMergeMatchesSerial(t *testing.T) {
	coreCounts := []int{1, 2, 3, 8, runtime.GOMAXPROCS(0)}
	for _, sh := range testShapes(2) {
		for _, order := range []Order{KeyRun, KeyVal} {
			ref := encode(refMerge(sh.seqs, order))
			for _, cores := range coreCounts {
				t.Run(fmt.Sprintf("%s/%s/cores=%d", sh.name, orderName(order), cores), func(t *testing.T) {
					seqs := cloneSeqs(sh.seqs)
					before := encode(flattenSeqs(seqs))
					out := make([]record.Record, totalLen(seqs))
					Merge(seqs, out, cores, order)
					if got := encode(out); !bytes.Equal(got, ref) {
						t.Fatal("parallel merge diverges from serial reference")
					}
					if !bytes.Equal(encode(flattenSeqs(seqs)), before) {
						t.Fatal("Merge mutated its input sequences")
					}
				})
			}
		}
	}
}

func flattenSeqs(seqs [][]record.Record) []record.Record {
	var out []record.Record
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// TestMergeRejectsBadOutput pins the length check: a mis-sized output
// buffer is a programming error, not a truncation.
func TestMergeRejectsBadOutput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge with short output did not panic")
		}
	}()
	Merge([][]record.Record{{{Key: 1}, {Key: 2}}}, make([]record.Record, 1), 1, KeyRun)
}

// TestSortMatchesSortRecords checks that the parallel sort is exactly
// record.SortRecords for every core count, across sizes that straddle the
// chunking threshold and inputs with heavy duplication.
func TestSortMatchesSortRecords(t *testing.T) {
	g := record.NewGenerator(3)
	inputs := map[string][]record.Record{
		"empty":     nil,
		"one":       g.Random(1),
		"small":     g.Random(minChunk - 1),
		"threshold": g.Random(2 * minChunk),
		"random":    g.Random(50_000),
		"dups":      g.WithDuplicates(30_000, 8),
		"sorted":    g.Sorted(20_000),
		"reversed":  g.Reversed(20_000),
		"nearly":    g.NearlySorted(20_000, 0.1),
	}
	allEq := make([]record.Record, 10_000)
	for i := range allEq {
		allEq[i] = record.Record{Key: 7, Val: uint64(i * 37 % 1009)}
	}
	inputs["allequal"] = allEq
	for name, in := range inputs {
		want := append([]record.Record(nil), in...)
		record.SortRecords(want)
		wantEnc := encode(want)
		for _, cores := range []int{0, 1, 2, 3, 8} {
			t.Run(fmt.Sprintf("%s/cores=%d", name, cores), func(t *testing.T) {
				got := append([]record.Record(nil), in...)
				Sort(got, cores)
				if !bytes.Equal(encode(got), wantEnc) {
					t.Fatal("parallel sort diverges from SortRecords")
				}
			})
		}
	}
}
