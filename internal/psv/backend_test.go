package psv

import (
	"reflect"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/storetest"
)

// The PSV mergesort runs identically over every store backend:
// same sorted output, same I/O statistics.
func TestSortBackendEquivalence(t *testing.T) {
	const d, b = 4, 4
	g := record.NewGenerator(23)
	all := g.Random(1500)

	type result struct {
		out   []record.Record
		stats pdisk.Stats
	}
	run := func(t *testing.T, store pdisk.Store) result {
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
		final, _, err := sortFile[record.Record](sys, file, 80, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		stats := sys.Stats()
		out, err := runio.ReadAll[record.Record](sys, final)
		if err != nil {
			t.Fatal(err)
		}
		return result{out: out, stats: stats}
	}

	var base *result
	var baseName string
	for _, f := range storetest.Factories(b, d) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			got := run(t, f.New(t))
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
