package pdisk

import (
	"errors"
	"fmt"
	"testing"

	"srmsort/internal/record"
)

// varBlock builds a sorted block of n variable-length records with keys
// drawn from a tiny alphabet (forcing shared prefixes) and payloads of
// varying length.
func varBlock(t *testing.T, n, salt int) record.Block {
	t.Helper()
	blk := make(record.Block, 0, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d-%d", i, salt))
		payload := make([]byte, (i*7+salt)%40)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		r, err := record.MakeVar(key, payload)
		if err != nil {
			t.Fatalf("MakeVar: %v", err)
		}
		blk = append(blk, r)
	}
	return blk
}

func TestFileStoreVarlenRoundTrip(t *testing.T) {
	for _, codecName := range []string{"varlen", "varlen+flate"} {
		t.Run(codecName, func(t *testing.T) {
			codec, err := record.CodecByName(codecName)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			fs, err := NewFileStoreCodec(dir, 8, 4, codec)
			if err != nil {
				t.Fatal(err)
			}
			want := map[BlockAddr]StoredBlock{}
			for i := 0; i < 5; i++ {
				addr := BlockAddr{Disk: i % 2, Index: i / 2}
				blk := StoredBlock{
					Records:  varBlock(t, 2+i, i),
					Forecast: []record.Key{record.Key(i), record.Key(i + 1)},
				}
				if err := fs.WriteBlock(addr, blk); err != nil {
					t.Fatalf("WriteBlock %v: %v", addr, err)
				}
				want[addr] = blk
			}
			check := func(fs *FileStore) {
				t.Helper()
				for addr, w := range want {
					got, err := fs.ReadBlock(addr)
					if err != nil {
						t.Fatalf("ReadBlock %v: %v", addr, err)
					}
					if len(got.Records) != len(w.Records) {
						t.Fatalf("block %v: %d records, want %d", addr, len(got.Records), len(w.Records))
					}
					for i := range got.Records {
						if got.Records[i] != w.Records[i] {
							t.Fatalf("block %v record %d: got %+v want %+v", addr, i, got.Records[i], w.Records[i])
						}
					}
				}
			}
			check(fs)
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen with the same codec: occupancy and contents recover.
			fs2, err := NewFileStoreCodec(dir, 8, 4, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Close()
			check(fs2)
			rep, err := fs2.Scrub()
			if err != nil {
				t.Fatalf("Scrub: %v", err)
			}
			if len(rep.Corrupt) != 0 || rep.Blocks != len(want) {
				t.Fatalf("Scrub: %+v, want %d clean blocks", rep, len(want))
			}
		})
	}
}

func TestFileStoreVarlenTornWrite(t *testing.T) {
	codec, _ := record.CodecByName("varlen")
	fs, err := NewFileStoreCodec(t.TempDir(), 8, 1, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	addr := BlockAddr{Disk: 0, Index: 0}
	blk := StoredBlock{Records: varBlock(t, 6, 3), Forecast: []record.Key{7}}
	if err := fs.WriteBlockTorn(addr, blk); err != nil {
		t.Fatalf("WriteBlockTorn: %v", err)
	}
	if _, err := fs.ReadBlock(addr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadBlock after torn write: err=%v, want ErrCorrupt", err)
	}
}

func TestFileStoreVarlenRejectsOversizedRecord(t *testing.T) {
	codec, _ := record.CodecByName("varlen")
	fs, err := NewFileStoreCodec(t.TempDir(), 2, 0, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// A fixed16 record (no Ext) cannot travel through the varlen codec.
	err = fs.WriteBlock(BlockAddr{}, StoredBlock{Records: record.Block{{Key: 1, Val: 2}}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("WriteBlock of ext-less record: err=%v, want ErrInvalid", err)
	}
}

// TestFileStoreVarlenRecordsOwnTheirBytes guards block-resident varlen
// decoding: the records a ReadBlock returns must keep their bytes after
// the store's pooled scratch buffer has carried other transfers. A
// decode whose Ext strings viewed that buffer (an unsafe.String over the
// payload, say) would see them rewritten by the later reads and writes.
// The transfers run sequentially (a goroutine reuses its pool slot) and
// then from concurrent goroutines, so the race detector watches too.
func TestFileStoreVarlenRecordsOwnTheirBytes(t *testing.T) {
	fs, err := NewFileStoreCodec(t.TempDir(), 16, 2, record.Varlen{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Remove()
	first := BlockAddr{Disk: 0, Index: 0}
	want := varBlock(t, 16, 0)
	if err := fs.WriteBlock(first, StoredBlock{Records: want}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadBlock(first)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 16
	blocks := make([]record.Block, 1+workers*perWorker)
	for i := 1; i < len(blocks); i++ {
		blocks[i] = varBlock(t, 16, i)
	}
	transfer := func(i int) error {
		addr := BlockAddr{Disk: i % 2, Index: i}
		if err := fs.WriteBlock(addr, StoredBlock{Records: blocks[i]}); err != nil {
			return err
		}
		_, err := fs.ReadBlock(addr)
		return err
	}
	for i := 1; i <= perWorker; i++ {
		if err := transfer(i); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, workers)
	for w := 1; w < workers; w++ {
		go func() {
			var err error
			for i := w*perWorker + 1; i <= (w+1)*perWorker && err == nil; i++ {
				err = transfer(i)
			}
			errs <- err
		}()
	}
	for w := 1; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i := range want {
		if got.Records[i] != want[i] {
			t.Fatalf("record %d changed after the scratch buffer was reused: %q, want %q",
				i, got.Records[i].Ext, want[i].Ext)
		}
	}
}
