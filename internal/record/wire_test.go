package record

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// Reading a fixed16 wire record decodes straight from the bufio.Reader's
// buffer: no allocation per record.
func TestFixed16ReadRecordAllocatesNothing(t *testing.T) {
	const n = 1000
	data := make([]byte, n*Bytes)
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(data)
		br.Reset(src)
		for {
			if _, err := (Fixed16{}).ReadRecord(br); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per %d records, want 0", allocs, n)
	}
}

// The block reader fills a caller's block without allocating.
func TestReadBlock16AllocatesNothing(t *testing.T) {
	const n = 1000
	data := make([]byte, n*Bytes)
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	dst := make([]Rec16, 64)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(data)
		br.Reset(src)
		for {
			if _, err := (Fixed16{}).ReadBlock16(br, dst); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per %d records, want 0", allocs, n)
	}
}

// perRecord decodes a wire stream record by record with c.ReadRecord —
// the reference the block readers are held to — returning the records
// and the error that ended the stream (nil at a clean end).
func perRecord(c Codec, data []byte) ([]Record, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	var out []Record
	for {
		r, err := c.ReadRecord(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// byBlocks decodes a wire stream from r through the block reader of c —
// ReadBlock16 for fixed16, ReadBlock otherwise — over a bufio.Reader of
// bufSize bytes, into blocks of the sizes next draws. A short block
// without an error breaks the contract.
func byBlocks(t *testing.T, c Codec, r io.Reader, bufSize int, next func() int) ([]Record, error) {
	t.Helper()
	br := bufio.NewReaderSize(r, bufSize)
	var out []Record
	for {
		want := next()
		var k int
		var err error
		if c.FixedSize() > 0 {
			dst := make([]Rec16, want)
			k, err = Fixed16{}.ReadBlock16(br, dst)
			out = append(out, ToWide(dst[:k])...)
		} else {
			dst := make([]Record, want)
			k, err = ReadBlock(c, br, dst)
			out = append(out, dst[:k]...)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if k != want {
			t.Fatalf("%s: block of %d records came back with %d and no error", c.Name(), want, k)
		}
	}
}

// chunkedReader serves data in chunks of 1..max bytes drawn from rng;
// with eofWithData its last chunk comes with io.EOF.
type chunkedReader struct {
	data        []byte
	rng         *rand.Rand
	max         int
	eofWithData bool
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+c.rng.Intn(c.max), len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// sameDecode fails the test unless the block reader decoded exactly the
// records the per-record reader did and stopped the same way: at a clean
// end, or on corruption at the same record.
func sameDecode(t *testing.T, label string, got []Record, gotErr error, want []Record, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, per-record reader %d (errors %v / %v)", label, len(got), len(want), gotErr, wantErr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, per-record reader %+v", label, i, got[i], want[i])
		}
	}
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: stream ended with %v, per-record reader %v", label, gotErr, wantErr)
	}
}

// skipAll walks a varlen stream with SkipRecord, returning the count and
// the error that ended it (nil at a clean end).
func skipAll(v Varlen, data []byte) (int, int, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	n, largest := 0, 0
	for {
		size, err := v.SkipRecord(br)
		if err == io.EOF {
			return n, largest, nil
		}
		if err != nil {
			return n, largest, err
		}
		largest = max(largest, size)
		n++
	}
}

// wireOf encodes records in c's wire format.
func wireOf(t testing.TB, c Codec, rs []Record) []byte {
	var wire []byte
	for _, r := range rs {
		var err error
		if wire, err = c.AppendRecord(wire, r); err != nil {
			t.Fatal(err)
		}
	}
	return wire
}

// checkWire holds every block reader to the per-record one on data,
// under the read patterns of iotest's readers and random chunking, and
// SkipRecord to it on varlen streams.
func checkWire(t *testing.T, c Codec, data []byte, seed int64) {
	want, wantErr := perRecord(c, data)
	rng := rand.New(rand.NewSource(seed))
	readers := map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(data) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"half":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		"chunked": func() io.Reader {
			return &chunkedReader{data: data, rng: rng, max: 1 + rng.Intn(40), eofWithData: rng.Intn(2) == 0}
		},
	}
	for name, open := range readers {
		bufSize := 16 + rng.Intn(64)
		if c.FixedSize() == 0 && rng.Intn(2) == 0 {
			bufSize = 4096 // records fit: the peeked path
		}
		got, err := byBlocks(t, c, open(), bufSize, func() int { return 1 + rng.Intn(9) })
		sameDecode(t, c.Name()+"/"+name, got, err, want, wantErr)
	}
	if v, ok := c.(Varlen); ok {
		n, largest, err := skipAll(v, data)
		if n != len(want) || errClass(err) != errClass(wantErr) {
			t.Fatalf("%s: SkipRecord walked %d records (%v), ReadRecord %d (%v)", c.Name(), n, err, len(want), wantErr)
		}
		wantLargest := 0
		for _, r := range want {
			wantLargest = max(wantLargest, len(r.Ext))
		}
		if largest != wantLargest {
			t.Fatalf("%s: SkipRecord's largest record %d bytes, want %d", c.Name(), largest, wantLargest)
		}
	}
}

// The block readers decode exactly what the per-record reader does —
// whole streams, partial trailing records, overrunning length prefixes —
// however the bytes arrive.
func TestWireBlocksMatchReadRecord(t *testing.T) {
	g := NewGenerator(9)
	fixed := wireOf(t, Fixed16{}, g.Random(100))
	varlen := wireOf(t, Varlen{}, g.RandomVar(100, 16, 24))
	overrun := append(append([]byte(nil), varlen...), 0x32, 'a', 'b') // claims 50 bytes, 2 left
	toolong := append(append([]byte(nil), varlen...), 0xff, 0x0f)     // claims 2047 bytes
	badKey := append(append([]byte(nil), varlen...), 0x02, 0x09, 'k') // key length 9 in 2 bytes
	cases := []struct {
		name string
		c    Codec
		data []byte
	}{
		{"fixed16/empty", Fixed16{}, nil},
		{"fixed16/whole", Fixed16{}, fixed},
		{"fixed16/partial-tail", Fixed16{}, fixed[:len(fixed)-5]},
		{"fixed16/short", Fixed16{}, fixed[:7]},
		{"varlen/empty", Varlen{}, nil},
		{"varlen/whole", Varlen{}, varlen},
		{"varlen/truncated", Varlen{}, varlen[:len(varlen)-3]},
		{"varlen/overrun", Varlen{}, overrun},
		{"varlen/too-long", Varlen{}, toolong},
		{"varlen/bad-key", Varlen{}, badKey},
		{"varlen+flate/whole", Varlen{Flate: true}, varlen},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkWire(t, tc.c, tc.data, int64(i)) })
	}
	if _, err := perRecord(Fixed16{}, fixed[:len(fixed)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial fixed16 tail: %v, want ErrCorrupt", err)
	}
	for _, data := range [][]byte{overrun, toolong, badKey} {
		if _, err := perRecord(Varlen{}, data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("malformed varlen stream: %v, want ErrCorrupt", err)
		}
	}
}

// FuzzWireBlocks holds the block wire readers (ReadBlock16, ReadBlock)
// and the varlen SkipRecord walk to per-record ReadRecord on arbitrary
// bytes, as fixed16 and as varlen streams, under random read chunking,
// reader buffer sizes and block sizes: the same records, and the same
// end — clean, or corruption at the same record.
func FuzzWireBlocks(f *testing.F) {
	g := NewGenerator(4)
	f.Add([]byte{}, false, int64(1))
	f.Add(make([]byte, 16), false, int64(2))
	f.Add(make([]byte, 37), false, int64(3))
	f.Add(wireOf(f, Fixed16{}, g.Random(20)), false, int64(4))
	varlen := wireOf(f, Varlen{}, g.RandomVar(20, 12, 30))
	f.Add(varlen, true, int64(5))
	f.Add(varlen[:len(varlen)-4], true, int64(6))
	f.Add(append(append([]byte(nil), varlen...), 0xff, 0x0f), true, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, varlen bool, seed int64) {
		var c Codec = Fixed16{}
		if varlen {
			c = Varlen{}
		}
		checkWire(t, c, data, seed)
	})
}
