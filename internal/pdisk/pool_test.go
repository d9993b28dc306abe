package pdisk

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"srmsort/internal/record"
)

// TestNewBlockRecyclesFreedArrays pins the pool's one entry point: a
// full block freed from a MemStore gives its array back to NewBlock of
// its width and capacity, and a partial block (shorter than its
// capacity, as a sub-slice of a larger array may be) gives nothing back.
func TestNewBlockRecyclesFreedArrays(t *testing.T) {
	const b = 3 // a capacity no other test's blocks have
	m := NewMemStore()
	defer m.Close()
	roundTrip := func(recs []record.Rec16) {
		t.Helper()
		if err := m.WriteBlock(BlockAddr{}, MakeStored(recs, nil)); err != nil {
			t.Fatal(err)
		}
		if err := m.Free(BlockAddr{}); err != nil {
			t.Fatal(err)
		}
	}
	// sync.Pool may drop an item at any time (the race detector drops
	// some on purpose), so give the full array a few chances to return.
	recycled := false
	for i := 0; i < 100 && !recycled; i++ {
		full := append(NewBlock[record.Rec16](b), record.Rec16{Key: 1}, record.Rec16{Key: 2}, record.Rec16{Key: 3})
		roundTrip(full)
		got := NewBlock[record.Rec16](b)
		if len(got) != 0 || cap(got) != b {
			t.Fatalf("NewBlock(%d) returned len %d cap %d", b, len(got), cap(got))
		}
		recycled = unsafe.SliceData(got) == unsafe.SliceData(full)
	}
	if !recycled {
		t.Fatal("a freed full block never came back from NewBlock")
	}
	partial := make([]record.Rec16, 1, b)
	roundTrip(partial)
	for i := 0; i < 4; i++ {
		if unsafe.SliceData(NewBlock[record.Rec16](b)) == unsafe.SliceData(partial) {
			t.Fatal("NewBlock handed out the array of a partial block")
		}
	}
}

// TestRecycleFencesStuckWrite pins block recycling's fence against the
// write hazard of DESIGN §14.2: a write abandoned at its deadline still
// holds the caller's block, and while its leg is stuck that block is not
// resident, so no free can pool its array. While the leg is parked the
// test frees the address (which fails: nothing is there) and churns
// other blocks through the pool, checking that none of them is the held
// array; once the leg lands, the block must read back as written.
func TestRecycleFencesStuckWrite(t *testing.T) {
	engineStores(t, map[string]int{"write": 1}, func(t *testing.T, inner *stuckStore, st Store) {
		ctl := &timerCtl{}
		sys := engineSystem(t, st, nil, &DeadlinePolicy{OpDeadline: 20 * time.Millisecond, After: ctl.After, Now: ctl.Now})
		defer sys.Close()
		stuck := BlockAddr{Disk: 0, Index: 0}
		held := NewBlock[record.Rec16](4)
		for k := record.Key(1); k <= 4; k++ {
			held = append(held, record.Rec16{Key: k, Val: uint64(k)})
		}
		write := func() error { return sys.WriteBlocks([]BlockWrite{{Addr: stuck, Block: MakeStored(held, nil)}}) }
		errc := make(chan error, 1)
		go func() { errc <- write() }()
		inner.waitParked(t, "write", 1)
		ctl.fire(t, 0)
		if err := <-errc; !errors.Is(err, ErrDeadline) {
			t.Fatalf("stuck write: %v, want a deadline error", err)
		}

		if err := sys.FreeBlocks(stuck); !errors.Is(err, ErrAbsent) {
			t.Fatalf("free of the stuck write's address: %v, want ErrAbsent (not resident yet)", err)
		}
		for i := 1; i <= 64; i++ {
			recs := NewBlock[record.Rec16](4)
			if unsafe.SliceData(recs) == unsafe.SliceData(held) {
				t.Fatal("the pool handed out the array a stuck write holds")
			}
			for j := 0; j < 4; j++ {
				recs = append(recs, record.Rec16{Key: record.Key(1000 + i)})
			}
			a := BlockAddr{Disk: 1, Index: i}
			if err := sys.WriteBlocks([]BlockWrite{{Addr: a, Block: MakeStored(recs, nil)}}); err != nil {
				t.Fatal(err)
			}
			if err := sys.FreeBlocks(a); err != nil {
				t.Fatal(err)
			}
		}

		close(inner.release)
		if err := write(); err != nil { // joins the parked leg, or rewrites the landed block
			t.Fatalf("retried write: %v", err)
		}
		blks, err := sys.ReadBlocks([]BlockAddr{stuck})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range blks[0].Recs16 {
			if want := record.Key(i + 1); r.Key != want || r.Val != uint64(want) {
				t.Fatalf("record %d of the stuck write reads %+v, want key %d", i, r, want)
			}
		}
	})
}
