package srm

import (
	"fmt"
	"reflect"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/storetest"
)

// The SRM merge is backend-blind: the same input sorted over every store
// backend, sync and async, yields identical records and identical I/O
// statistics — the storage substrate is swappable beneath the merge
// logic.
func TestSortRunsBackendEquivalence(t *testing.T) {
	const d, b = 4, 4
	g := record.NewGenerator(91)
	all := g.Random(2200)

	type result struct {
		out   []record.Record
		stats pdisk.Stats
	}
	run := func(t *testing.T, store pdisk.Store, async bool) result {
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		formed, err := runform.MemoryLoad[record.Record](sys, file, 100, runio.StaggeredPlacement{D: d}, 0)
		if err != nil {
			t.Fatal(err)
		}
		final, _, _, err := SortRunsOpts[record.Record](sys, formed.Runs, 4, runio.StaggeredPlacement{D: d}, formed.NextSeq, SortOpts{Async: async})
		if err != nil {
			t.Fatal(err)
		}
		stats := sys.Stats() // snapshot before verification reads
		out, err := runio.ReadAll[record.Record](sys, final)
		if err != nil {
			t.Fatal(err)
		}
		return result{out: out, stats: stats}
	}

	for _, async := range []bool{false, true} {
		var base *result
		var baseName string
		for _, f := range storetest.Factories(b, d) {
			f := f
			t.Run(fmt.Sprintf("async=%v/%s", async, f.Name), func(t *testing.T) {
				got := run(t, f.New(t), async)
				if !record.IsSortedRecords(got.out) || record.Checksum(got.out) != record.Checksum(all) {
					t.Fatal("output not a sorted permutation of the input")
				}
				if base == nil {
					base = &got
					baseName = f.Name
					return
				}
				if !reflect.DeepEqual(base.out, got.out) {
					t.Fatalf("records diverge from %s backend", baseName)
				}
				if !reflect.DeepEqual(base.stats, got.stats) {
					t.Fatalf("stats diverge from %s:\n%+v\nvs\n%+v", baseName, base.stats, got.stats)
				}
			})
		}
	}
}
