package pdisk

import (
	"strings"
	"testing"

	"srmsort/internal/record"
)

// A FileStore abandoned without Close (a crashed process) must leave its
// completed writes recoverable: a second store opened over the same
// directory rebuilds occupancy from the meta sidecars and reads every
// block back intact, including frees.
func TestFileStoreCrashReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{D: 3, B: 4, Store: fs})
	if err != nil {
		t.Fatal(err)
	}

	// Write a spread of blocks through both the sync and async paths,
	// free a few, and "crash": no Close, no fsync, handles abandoned.
	type written struct {
		addr BlockAddr
		blk  StoredBlock
	}
	var live []written
	for i := 0; i < 40; i++ {
		disk := i % 3
		a := sys.Alloc(disk)
		b := mkBlock(record.Key(1000+i), record.Key(2000+i))
		if i%5 == 0 {
			b.Forecast = []record.Key{record.Key(i), record.Key(i + 1)}
		}
		if i%2 == 0 {
			if err := sys.WriteBlocks([]BlockWrite{{Addr: a, Block: b}}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: b}}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 0 {
			if err := sys.FreeBlocks(a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		live = append(live, written{addr: a, blk: b})
	}
	// Crash: the System and store go out of scope un-Closed.

	re, err := NewFileStore(dir, 4, 2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	wantLive := int64(len(live))
	if u := re.Usage(); u.Blocks != wantLive {
		t.Fatalf("reopened store sees %d blocks, want %d", u.Blocks, wantLive)
	}
	for _, w := range live {
		got, err := re.ReadBlock(w.addr)
		if err != nil {
			t.Fatalf("read %v after reopen: %v", w.addr, err)
		}
		gw, ww := got.Wide(), w.blk.Wide()
		if len(gw) != len(ww) {
			t.Fatalf("%v: %d records, want %d", w.addr, len(gw), len(ww))
		}
		for i := range gw {
			if gw[i] != ww[i] {
				t.Fatalf("%v record %d = %+v, want %+v", w.addr, i, gw[i], ww[i])
			}
		}
		if len(got.Forecast) != len(w.blk.Forecast) {
			t.Fatalf("%v: %d forecast keys, want %d", w.addr, len(got.Forecast), len(w.blk.Forecast))
		}
		for i := range got.Forecast {
			if got.Forecast[i] != w.blk.Forecast[i] {
				t.Fatalf("%v forecast %d = %v, want %v", w.addr, i, got.Forecast[i], w.blk.Forecast[i])
			}
		}
	}
	// Freed blocks stay freed across the reopen.
	if _, err := re.ReadBlock(BlockAddr{Disk: 0, Index: 0}); err == nil || !strings.Contains(err.Error(), "no block") {
		t.Fatalf("freed block readable after reopen: %v", err)
	}
	// And the reopened store accepts new writes beyond the old frontier.
	a := BlockAddr{Disk: 1, Index: 999}
	if err := re.WriteBlock(a, mkBlock(7)); err != nil {
		t.Fatal(err)
	}
	if got, err := re.ReadBlock(a); err != nil || got.Wide().FirstKey() != 7 {
		t.Fatalf("write after reopen: %v %v", got, err)
	}
}

// Close leaves the files on disk (fsynced); Remove deletes them. A Close
// after Remove is a no-op: sortd closes a done job's store stack after
// discarding its disks.
func TestFileStoreCloseKeepsFilesRemoveDeletes(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteBlock(BlockAddr{Disk: 0, Index: 0}, mkBlock(1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewFileStore(dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.ReadBlock(BlockAddr{Disk: 0, Index: 0}); err != nil || got.Wide().FirstKey() != 1 {
		t.Fatalf("block lost across Close+reopen: %v %v", got, err)
	}
	if err := re.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close after Remove: %v", err)
	}
	re2, err := NewFileStore(dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if u := re2.Usage(); u.Blocks != 0 {
		t.Fatalf("store not empty after Remove: %+v", u)
	}
}
