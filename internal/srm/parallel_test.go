package srm

import (
	"testing"

	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
)

func TestParallelRandomPlacementDeterministic(t *testing.T) {
	// With a seeded random placement, parallel execution must still be
	// reproducible: starting disks are drawn in group order before any
	// merge starts.
	all := record.NewGenerator(32).Random(3000)
	run := func() SortStats {
		sys := newSys(t, 3, 4)
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		pl := &runio.RandomPlacement{D: 3, Rng: newRand(77)}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 100, pl, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, _, err := SortRunsOpts[record.Record](sys, formed.Runs, 4, pl, formed.NextSeq, SortOpts{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("parallel sort not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestParallelValidation(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(33)
	runs := g.SplitIntoSortedRuns(g.Random(20), 2)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	if _, _, _, err := SortRunsOpts[record.Record](sys, descs, 1, runio.StaggeredPlacement{D: 2}, 0, SortOpts{Workers: 2}); err == nil {
		t.Fatal("merge order 1 accepted")
	}
	if _, _, _, err := SortRunsOpts[record.Record](sys, nil, 2, runio.StaggeredPlacement{D: 2}, 0, SortOpts{Workers: 2}); err == nil {
		t.Fatal("no runs accepted")
	}
}
