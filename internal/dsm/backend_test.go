package dsm

import (
	"fmt"
	"reflect"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/storetest"
)

// Disk-striped mergesort must be oblivious to the storage backend: every
// Store implementation yields the same sorted stream and the same I/O
// statistics, sync and async alike.
func TestSortBackendEquivalence(t *testing.T) {
	const d, b = 4, 4
	g := record.NewGenerator(57)
	all := g.Random(1900)

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
		res, err := sortFile(sys, file, 90, 3, async)
		if err != nil {
			t.Fatal(err)
		}
		stats := sys.Stats()
		out, err := ReadAll[record.Record](sys, res.out)
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
