package srm

import (
	"math/rand"
	"reflect"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
)

// modeShape is one input of the execution-mode equivalence table: n
// records (random, or each key repeated about dups times) cut into sorted
// runs stored on D disks of B-record blocks, merged r at a time. A shape
// whose runs fit one merge (pieces <= r) tests the merge itself; the
// others run several passes, so Workers has merges to spread.
type modeShape struct {
	name      string
	seed      int64
	d, b, r   int
	n, pieces int
	dups      int
	// formLoad > 0 forms the runs with runform.MemoryLoad at that load
	// instead of cutting the input into pieces.
	formLoad  int
	placement func(d int) runio.Placement
}

func staggered(d int) runio.Placement { return runio.StaggeredPlacement{D: d} }
func adversarial(int) runio.Placement { return runio.FixedPlacement{Disk: 0} }
func seededRandom(seed int64) func(d int) runio.Placement {
	return func(d int) runio.Placement { return &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(seed))} }
}

// modeResult is everything a sort's execution mode must not change.
type modeResult struct {
	recs  []record.Record
	stats SortStats
	io    pdisk.Stats
}

// sortInMode stores the shape's runs on a fresh system and sorts them
// under opts.
func sortInMode(t *testing.T, sh modeShape, opts SortOpts) modeResult {
	t.Helper()
	sys := newSys(t, sh.d, sh.b)
	defer sys.Close()
	g := record.NewGenerator(sh.seed)
	var all []record.Record
	if sh.dups > 0 {
		all = g.WithDuplicates(sh.n, sh.dups)
	} else {
		all = g.Random(sh.n)
	}
	pl := sh.placement(sh.d)
	var runs []*runio.Run
	if sh.formLoad > 0 {
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		formed, err := runform.MemoryLoad[record.Record](sys, file, sh.formLoad, pl, 0)
		if err != nil {
			t.Fatal(err)
		}
		runs = formed.Runs
	} else {
		runs = writeRuns(t, sys, g.SplitIntoSortedRuns(all, sh.pieces), pl)
	}
	final, stats, _, err := SortRunsOpts[record.Record](sys, runs, sh.r, pl, len(runs), opts)
	if err != nil {
		t.Fatal(err)
	}
	io := sys.Stats() // before the verification reads
	recs, err := runio.ReadAll[record.Record](sys, final)
	if err != nil {
		t.Fatal(err)
	}
	return modeResult{recs, stats, io}
}

// checkModes requires every execution mode — overlapped I/O, pass-level
// workers, sharded super-span consumption, and every combination — to
// reproduce the zero-options sort of each shape exactly: the same records
// (values included), the same SortStats and the same per-disk I/O counts.
func checkModes(t *testing.T, shapes []modeShape) {
	t.Helper()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			want := sortInMode(t, sh, SortOpts{})
			for _, async := range []bool{false, true} {
				for _, workers := range []int{1, 2, -1} {
					for _, cores := range []int{1, 2, 8} {
						opts := SortOpts{Async: async, Workers: workers, Cores: cores}
						got := sortInMode(t, sh, opts)
						if !reflect.DeepEqual(got.recs, want.recs) {
							t.Fatalf("%+v: records differ from the zero-options sort", opts)
						}
						if got.stats != want.stats {
							t.Fatalf("%+v: stats diverge:\ngot  %+v\nwant %+v", opts, got.stats, want.stats)
						}
						if !reflect.DeepEqual(got.io, want.io) {
							t.Fatalf("%+v: I/O diverges:\ngot  %+v\nwant %+v", opts, got.io, want.io)
						}
					}
				}
			}
		})
	}
}

// Single merges across disk counts and placements — including the
// adversarial fixed layout — and duplicate-heavy inputs, where the overlap
// window's stall guard decides what may be consumed early.
func TestMergeAsyncEquivalence(t *testing.T) {
	checkModes(t, []modeShape{
		{name: "D1-staggered", seed: 1212, d: 1, b: 4, r: 8, n: 400, pieces: 6, placement: staggered},
		{name: "D2-staggered", seed: 1212, d: 2, b: 4, r: 8, n: 800, pieces: 8, placement: staggered},
		{name: "D4-random", seed: 909, d: 4, b: 8, r: 12, n: 3000, pieces: 12, placement: seededRandom(7)},
		{name: "D4-random-dups", seed: 1414, d: 4, b: 4, r: 10, n: 2000, pieces: 10, dups: 25, placement: seededRandom(11)},
		// Five distinct keys: ties between a stalled run's awaited key and
		// the active minimum are everywhere, so the overlap window's
		// strict stall guard is exercised constantly.
		{name: "D4-five-keys", seed: 9, d: 4, b: 4, r: 10, n: 2000, pieces: 10, dups: 400, placement: seededRandom(13)},
		{name: "D4-fixed-adversarial", seed: 2020, d: 4, b: 4, r: 8, n: 1200, pieces: 8, placement: adversarial},
		{name: "D8-staggered", seed: 1212, d: 8, b: 4, r: 16, n: 4000, pieces: 16, placement: staggered},
	})
}

// Single merges whose super-spans the sharded consumer splits, down to one
// disk and up to blocks large enough that the merge-back really fans out.
func TestMergeCoresEquivalence(t *testing.T) {
	checkModes(t, []modeShape{
		{name: "D1-small-blocks", seed: 1965, d: 1, b: 4, r: 8, n: 400, pieces: 6, placement: staggered},
		{name: "D4-random", seed: 1179, d: 4, b: 8, r: 12, n: 3000, pieces: 12, placement: seededRandom(7)},
		{name: "D4-dups", seed: 917, d: 4, b: 4, r: 10, n: 2000, pieces: 10, dups: 25, placement: seededRandom(11)},
		{name: "D4-fixed-adversarial", seed: 2620, d: 4, b: 4, r: 8, n: 1200, pieces: 8, placement: adversarial},
		// Big blocks: per-call super-spans reach R*B = 4096 records,
		// above pmerge's sharding threshold.
		{name: "D4-big-blocks", seed: 1703, d: 4, b: 512, r: 8, n: 80_000, pieces: 8, placement: staggered},
		{name: "D8-big-blocks-dups", seed: 2358, d: 8, b: 512, r: 6, n: 60_000, pieces: 6, dups: 25, placement: staggered},
	})
}

// Multi-pass sorts with partial groups, where Workers has merges to spread,
// from pre-cut runs and from runs formed by runform.
func TestModeEquivalence(t *testing.T) {
	checkModes(t, []modeShape{
		{name: "multipass-24-runs", seed: 99, d: 4, b: 4, r: 4, n: 2400, pieces: 24, placement: staggered},
		{name: "multipass-16-runs", seed: 123, d: 4, b: 4, r: 4, n: 3200, pieces: 16, placement: staggered},
		{name: "multipass-dups", seed: 977, d: 4, b: 8, r: 4, n: 20_000, pieces: 16, dups: 12, placement: staggered},
		{name: "multipass-formed", seed: 31, d: 4, b: 8, r: 5, n: 6000, formLoad: 200, placement: staggered},
	})
}
