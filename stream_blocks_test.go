package srmsort

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"srmsort/internal/record"
)

// streamReaders are the read patterns SortStream's block feed must be
// indifferent to: one byte per Read, half of what was asked, and the last
// bytes delivered together with io.EOF.
var streamReaders = map[string]func(io.Reader) io.Reader{
	"onebyte": iotest.OneByteReader,
	"half":    iotest.HalfReader,
	"dataerr": iotest.DataErrReader,
}

// SortStream's block seams are held to the slice sorts: the same output
// bytes and the same Stats as WriteRecords(Sort(…)) and
// WriteVarRecords(SortVar(…)), for every codec, however the input's reads
// are cut.
func TestSortStreamMatchesSliceSorts(t *testing.T) {
	fixed := randomRecords(3000, 31)
	vars := benchVarRecords(2000, 32)
	for _, codec := range []string{"fixed16", "varlen", "varlen+flate"} {
		for _, async := range []bool{false, true} {
			cfg := Config{D: 4, B: 8, K: 3, Seed: 5, Codec: codec, Async: async}
			var in, want bytes.Buffer
			var wantStats Stats
			if codec == "fixed16" {
				sorted, st, err := Sort(fixed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantStats = st
				if err := WriteRecords(&in, fixed); err != nil {
					t.Fatal(err)
				}
				if err := WriteRecords(&want, sorted); err != nil {
					t.Fatal(err)
				}
			} else {
				sorted, st, err := SortVar(vars, cfg)
				if err != nil {
					t.Fatal(err)
				}
				wantStats = st
				if err := WriteVarRecords(&in, vars); err != nil {
					t.Fatal(err)
				}
				if err := WriteVarRecords(&want, sorted); err != nil {
					t.Fatal(err)
				}
			}
			for name, wrap := range streamReaders {
				label := fmt.Sprintf("%s/async=%v/%s", codec, async, name)
				var out bytes.Buffer
				st, err := SortStream(wrap(bytes.NewReader(in.Bytes())), &out, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(out.Bytes(), want.Bytes()) {
					t.Fatalf("%s: stream output differs from the slice sort's (%d vs %d bytes)", label, out.Len(), want.Len())
				}
				if st != wantStats {
					t.Fatalf("%s: stats differ:\n stream: %+v\n slice:  %+v", label, st, wantStats)
				}
			}
		}
	}
}

// A malformed stream still fails the sort as corruption, naming the
// record it broke at.
func TestSortStreamCorruptionNamesRecord(t *testing.T) {
	var good bytes.Buffer
	if err := WriteVarRecords(&good, benchVarRecords(5, 33)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, codec string
		data        []byte
		at          int
	}{
		{"fixed16 partial tail", "fixed16", make([]byte, 10*RecordWireSize+7), 10},
		{"varlen overrunning prefix", "varlen", append(bytes.Clone(good.Bytes()), 0x32, 'a', 'b'), 5},
		{"varlen prefix past the bound", "varlen+flate", append(bytes.Clone(good.Bytes()), 0xff, 0x0f), 5},
	}
	for _, tc := range cases {
		for name, wrap := range streamReaders {
			_, err := SortStream(wrap(bytes.NewReader(tc.data)), io.Discard, Config{D: 2, B: 4, K: 2, Codec: tc.codec})
			if !errors.Is(err, record.ErrCorrupt) {
				t.Fatalf("%s/%s: err = %v, want ErrCorrupt", tc.name, name, err)
			}
			if at := fmt.Sprintf("input record %d:", tc.at); !strings.Contains(err.Error(), at) {
				t.Fatalf("%s/%s: err = %v, want it to name %q", tc.name, name, err, at)
			}
		}
	}
}

// A fixed16 SortStream moves records between the wire and the sort a
// block at a time: its allocations are per block, not per record.
func TestSortStreamFixed16AllocsPerRecord(t *testing.T) {
	const n = 20000
	var in bytes.Buffer
	if err := WriteRecords(&in, randomRecords(n, 34)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{D: 4, B: 64, K: 4, Seed: 1, Cores: 1}
	out := bytes.NewBuffer(make([]byte, 0, in.Len()))
	allocs := testing.AllocsPerRun(3, func() {
		out.Reset()
		if _, err := SortStream(bytes.NewReader(in.Bytes()), out, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The sort itself allocates per block and per merge (about 0.2/rec
	// here); one allocation per record anywhere on the wire path is
	// 1/rec more.
	if perRec := allocs / n; perRec > 0.5 {
		t.Fatalf("%.3f allocations per record, want at most 0.5", perRec)
	}
}
