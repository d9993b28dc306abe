package pdisk

import (
	"fmt"
	"reflect"
	"testing"

	"srmsort/internal/record"
)

// testBackends returns one factory per backend; every Store semantics
// test runs on all of them.
func testBackends(t *testing.T, b, maxForecast int) []struct {
	name string
	make func() Store
} {
	return []struct {
		name string
		make func() Store
	}{
		{"mem", func() Store { return NewMemStore() }},
		{"file", func() Store {
			fs, err := NewFileStore(t.TempDir(), b, maxForecast)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"fault-passthrough", func() Store {
			return NewFaultStore(NewMemStore(), FaultConfig{Seed: 3})
		}},
	}
}

// The same scripted operation sequence must yield identical Stats and
// identical read-back contents on every backend, sync and async — the
// pdisk-level form of the backend equivalence the public suite asserts
// end to end.
func TestBackendsEquivalentStatsAndContents(t *testing.T) {
	const d, b = 4, 3
	type result struct {
		stats  Stats
		blocks map[BlockAddr]StoredBlock
	}

	script := func(t *testing.T, store Store, async bool) result {
		sys, err := NewSystem(Config{D: d, B: b, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()

		write := func(ws []BlockWrite) {
			t.Helper()
			if async {
				err = sys.WriteBlocksAsync(ws).Wait()
			} else {
				err = sys.WriteBlocks(ws)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		read := func(addrs []BlockAddr) []StoredBlock {
			t.Helper()
			var out []StoredBlock
			if async {
				out, err = sys.ReadBlocksAsync(addrs).Wait()
			} else {
				out, err = sys.ReadBlocks(addrs)
			}
			if err != nil {
				t.Fatal(err)
			}
			return out
		}

		// A striped write workload with forecasts, rereads and frees.
		var all []BlockAddr
		for round := 0; round < 6; round++ {
			var ws []BlockWrite
			for disk := 0; disk < d; disk++ {
				a := sys.Alloc(disk)
				blk := mkBlock(record.Key(round*100+disk), record.Key(round*100+disk+50))
				if round == 0 {
					blk.Forecast = []record.Key{1, 2, 3, 4}
				} else if round%2 == 1 {
					blk.Forecast = []record.Key{record.Key(round)}
				}
				ws = append(ws, BlockWrite{Addr: a, Block: blk})
				all = append(all, a)
			}
			write(ws)
		}
		for i := 0; i+d <= len(all); i += d {
			read(all[i : i+d])
		}
		for disk := 0; disk < d; disk++ {
			if err := sys.FreeBlocks(BlockAddr{Disk: disk, Index: 5}); err != nil {
				t.Fatal(err)
			}
		}

		res := result{stats: sys.Stats(), blocks: make(map[BlockAddr]StoredBlock)}
		for _, a := range all {
			if a.Index == 5 {
				continue
			}
			res.blocks[a] = read([]BlockAddr{a})[0]
		}
		// The verification rereads above count identically everywhere, so
		// fold them in rather than subtracting.
		res.stats = sys.Stats()
		return res
	}

	for _, async := range []bool{false, true} {
		var base *result
		var baseName string
		for _, be := range testBackends(t, 3, d) {
			t.Run(fmt.Sprintf("async=%v/%s", async, be.name), func(t *testing.T) {
				got := script(t, be.make(), async)
				if base == nil {
					base = &got
					baseName = be.name
					return
				}
				if !reflect.DeepEqual(base.stats, got.stats) {
					t.Fatalf("stats diverge from %s:\n%+v\nvs\n%+v", baseName, base.stats, got.stats)
				}
				for a, want := range base.blocks {
					g := got.blocks[a]
					if !reflect.DeepEqual(want.Wide(), g.Wide()) || !reflect.DeepEqual(want.Forecast, g.Forecast) {
						t.Fatalf("block %v diverges from %s:\n%+v\nvs\n%+v", a, baseName, want, g)
					}
				}
			})
		}
	}
}

// Missing-block reads and absent frees fail on every backend — the error
// contract is part of the Store interface.
func TestBackendsErrorContract(t *testing.T) {
	for _, be := range testBackends(t, 2, 1) {
		t.Run(be.name, func(t *testing.T) {
			store := be.make()
			defer store.Close()
			if _, err := store.ReadBlock(BlockAddr{Disk: 0, Index: 3}); err == nil {
				t.Fatal("read of absent block succeeded")
			}
			if err := store.Free(BlockAddr{Disk: 0, Index: 3}); err == nil {
				t.Fatal("free of absent block succeeded")
			}
			a := BlockAddr{Disk: 1, Index: 0}
			if err := store.WriteBlock(a, mkBlock(9)); err != nil {
				t.Fatal(err)
			}
			if got, err := store.ReadBlock(a); err != nil || got.Wide().FirstKey() != 9 {
				t.Fatalf("round trip: %v %v", got, err)
			}
			if err := store.Free(a); err != nil {
				t.Fatal(err)
			}
			if err := store.Free(a); err == nil {
				t.Fatal("double free succeeded")
			}
			if u := store.Usage(); u.Blocks != 0 {
				t.Fatalf("usage after free: %+v", u)
			}
		})
	}
}
