package record

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
)

// Fixed16 block and wire encodings must be byte-identical to the
// original hand-rolled layout: 16 bytes little-endian per record.
func TestFixed16LayoutUnchanged(t *testing.T) {
	rs := []Record{{Key: 0x0102030405060708, Val: 0x1112131415161718}, {Key: 1, Val: 2}}
	enc, err := Fixed16{}.AppendBlock(nil, rs)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,
		0x01, 0, 0, 0, 0, 0, 0, 0,
		0x02, 0, 0, 0, 0, 0, 0, 0,
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("fixed16 encoding moved:\n got %x\nwant %x", enc, want)
	}
	dec, err := Fixed16{}.DecodeBlock(enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if dec[i] != rs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, dec[i], rs[i])
		}
	}
	if _, err := (Fixed16{}).AppendRecord(nil, Record{Ext: "x"}); err == nil {
		t.Fatal("fixed16 accepted a variable-length record")
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range append(CodecNames(), "") {
		c, err := CodecByName(name)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", name, err)
		}
		if name != "" && c.Name() != name {
			t.Fatalf("CodecByName(%q).Name() = %q", name, c.Name())
		}
	}
	if c, _ := CodecByName(""); c.Name() != "fixed16" {
		t.Fatal("empty codec name is not fixed16")
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// MakeVar/VarParts round-trip, and the derived prefix words coarsen —
// never invert — the lexicographic key order, also where a key of eight
// 0xFF bytes is clamped onto the first prefix word of keys starting
// ff×7 fe.
func TestMakeVarPrefixOrder(t *testing.T) {
	keys := [][]byte{
		{}, {0}, {1}, {0xff}, []byte("A"), []byte("AA"), []byte("AAAAAAAA"),
		[]byte("AAAAAAAAA"), []byte("AAAAAAAAZ"), []byte("AAAAAAAAAB"),
		[]byte("AAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAB"),
		bytes.Repeat([]byte{0xff}, 20),
		append(bytes.Repeat([]byte{0xff}, 8), 0x00),
		append(bytes.Repeat([]byte{0xff}, 7), 0xfe, 0xff),
	}
	var recs []Record
	for _, k := range keys {
		r, err := MakeVar(k, []byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		gotK, gotP, err := VarParts(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotK, k) || string(gotP) != "p" {
			t.Fatalf("round trip of key %x: got key %x payload %q", k, gotK, gotP)
		}
		if r.Key == MaxKey {
			t.Fatalf("key %x mapped onto the MaxKey sentinel", k)
		}
		recs = append(recs, r)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	SortRecords(recs)
	for i, r := range recs {
		k, _, _ := VarParts(r)
		if !bytes.Equal(k, keys[i]) {
			t.Fatalf("rank %d: sorted records give key %x, lexicographic order wants %x", i, k, keys[i])
		}
	}
}

// The documented CompareExt trap: a raw bytes-compare of encodings would
// order the 10-byte key "AAAAAAAAAB" before the 9-byte "AAAAAAAAZ"
// (its uvarint length byte is smaller); the decoded comparison must not.
func TestCompareExtDecodesKeyLength(t *testing.T) {
	prefix := strings.Repeat("A", 16)
	a, _ := MakeVar([]byte(prefix+"Z"), nil)  // 17-byte key
	b, _ := MakeVar([]byte(prefix+"AB"), nil) // 18-byte key, lexicographically smaller
	if strings.Compare(a.Ext, b.Ext) >= 0 {
		t.Fatal("test vector no longer exercises the raw-compare trap")
	}
	if CompareExt(a.Ext, b.Ext) <= 0 {
		t.Fatal("CompareExt must order the longer-but-smaller key first")
	}
	if a.Key != b.Key || a.Val != b.Val {
		t.Fatal("test vector should be prefix-tied")
	}
}

func TestVarlenBlockRoundTrip(t *testing.T) {
	for _, codec := range []Codec{Varlen{}, Varlen{Flate: true}} {
		g := NewGenerator(7)
		rs := g.RandomVar(257, 24, 40)
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > codec.MaxBlockBytes(len(rs)) {
			t.Fatalf("%s: encoded %d bytes exceeds MaxBlockBytes %d",
				codec.Name(), len(enc), codec.MaxBlockBytes(len(rs)))
		}
		dec, err := codec.DecodeBlock(enc, len(rs))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		for i := range rs {
			if dec[i] != rs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", codec.Name(), i, dec[i], rs[i])
			}
		}
	}
}

// Compressible payloads must shrink under varlen+flate and still decode.
func TestVarlenFlateCompresses(t *testing.T) {
	var rs []Record
	for i := 0; i < 64; i++ {
		r, err := MakeVar([]byte("key"), bytes.Repeat([]byte("abab"), 32))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	raw, _ := Varlen{}.AppendBlock(nil, rs)
	zip, _ := Varlen{Flate: true}.AppendBlock(nil, rs)
	if len(zip) >= len(raw) {
		t.Fatalf("flate did not compress: raw %d, flate %d", len(raw), len(zip))
	}
	dec, err := Varlen{Flate: true}.DecodeBlock(zip, len(rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(rs) || dec[0] != rs[0] {
		t.Fatal("flate round trip lost records")
	}
}

func TestVarlenWireRoundTrip(t *testing.T) {
	for _, codec := range []Codec{Fixed16{}, Varlen{}, Varlen{Flate: true}} {
		g := NewGenerator(11)
		var rs []Record
		if codec.FixedSize() > 0 {
			rs = g.Random(100)
		} else {
			rs = g.RandomVar(100, 16, 24)
		}
		var wire []byte
		var err error
		for _, r := range rs {
			if wire, err = codec.AppendRecord(wire, r); err != nil {
				t.Fatal(err)
			}
		}
		br := bufio.NewReader(bytes.NewReader(wire))
		for i := range rs {
			r, err := codec.ReadRecord(br)
			if err != nil {
				t.Fatalf("%s: record %d: %v", codec.Name(), i, err)
			}
			if r != rs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", codec.Name(), i, r, rs[i])
			}
		}
		if _, err := codec.ReadRecord(br); err != io.EOF {
			t.Fatalf("%s: want io.EOF at clean boundary, got %v", codec.Name(), err)
		}
	}
}

// Truncations at every byte offset must yield ErrCorrupt (or clean EOF
// at offset 0 for the wire form), never a panic or silent short decode.
func TestCodecTruncation(t *testing.T) {
	g := NewGenerator(3)
	rs := g.RandomVar(8, 12, 12)
	for _, codec := range []Codec{Varlen{}, Varlen{Flate: true}} {
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := codec.DecodeBlock(enc[:cut], len(rs)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation at %d/%d: err = %v, want ErrCorrupt",
					codec.Name(), cut, len(enc), err)
			}
		}
	}
	fixEnc, _ := Fixed16{}.AppendBlock(nil, []Record{{Key: 1, Val: 2}})
	if _, err := (Fixed16{}).DecodeBlock(fixEnc[:10], 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fixed16 truncation: err = %v, want ErrCorrupt", err)
	}
}

// Bit flips in any position must decode to ErrCorrupt or to a block of
// records that still parses (flips inside key/payload bytes are data
// corruption the CRC layer owns, not framing corruption) — never panic.
func TestVarlenBitFlips(t *testing.T) {
	g := NewGenerator(5)
	rs := g.RandomVar(16, 10, 10)
	for _, codec := range []Codec{Varlen{}, Varlen{Flate: true}} {
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 1 << bit
				dec, err := codec.DecodeBlock(mut, len(rs))
				if err == nil && len(dec) != len(rs) {
					t.Fatalf("%s: flip %d.%d decoded %d records without error", codec.Name(), i, bit, len(dec))
				}
			}
		}
	}
}

func TestChecksumSeesExt(t *testing.T) {
	a, _ := MakeVar([]byte("k"), []byte("p1"))
	b, _ := MakeVar([]byte("k"), []byte("p2"))
	if a.Key != b.Key || a.Val != b.Val {
		t.Fatal("vectors should differ only in payload")
	}
	if Checksum([]Record{a}) == Checksum([]Record{b}) {
		t.Fatal("checksum is blind to Ext bytes")
	}
	// Fixed-size records keep the original checksum (empty Ext folds
	// nothing), so historical golden sums remain valid.
	if Checksum([]Record{{Key: 9, Val: 4}}) != Checksum([]Record{{Key: 9, Val: 4, Ext: ""}}) {
		t.Fatal("empty Ext changed the checksum")
	}
}

// FuzzCodecRoundTrip drives both directions of every codec: valid
// records must round-trip block- and wire-wise, and arbitrary mutated
// bytes (the fuzzer's corpus evolves truncated tails and bit flips) must
// decode to ErrCorrupt or a well-formed block — never a panic.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{}, 3)
	f.Add(int64(2), uint8(1), []byte{0x00, 0x01, 0xff}, 5)
	f.Add(int64(3), uint8(2), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 1)
	f.Fuzz(func(t *testing.T, seed int64, codecPick uint8, raw []byte, nrec int) {
		codecs := []Codec{Fixed16{}, Varlen{}, Varlen{Flate: true}}
		codec := codecs[int(codecPick)%len(codecs)]
		if nrec < 0 || nrec > 1<<12 {
			return
		}

		// Direction 1: adversarial bytes into the decoders. Must not
		// panic; errors must be ErrCorrupt (framing) for the varlen
		// codecs or length mismatches for fixed16.
		if dec, err := codec.DecodeBlock(raw, nrec); err == nil {
			if len(dec) != nrec {
				t.Fatalf("%s: decoded %d records, asked for %d", codec.Name(), len(dec), nrec)
			}
			// A successful decode must re-encode decodably (not
			// necessarily to identical bytes: flate blocks may
			// re-encode raw).
			enc, err := codec.AppendBlock(nil, dec)
			if err != nil {
				t.Fatalf("%s: re-encoding decoded block: %v", codec.Name(), err)
			}
			if _, err := codec.DecodeBlock(enc, nrec); err != nil {
				t.Fatalf("%s: decoded block does not re-decode: %v", codec.Name(), err)
			}
		} else if codec.FixedSize() == 0 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: decode error does not wrap ErrCorrupt: %v", codec.Name(), err)
		}
		br := bufio.NewReader(bytes.NewReader(raw))
		for {
			if _, err := codec.ReadRecord(br); err != nil {
				if err != io.EOF && codec.FixedSize() == 0 && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: wire decode error does not wrap ErrCorrupt: %v", codec.Name(), err)
				}
				break
			}
		}

		// Direction 2: generated records must round-trip exactly.
		g := NewGenerator(seed)
		n := nrec%64 + 1
		var rs []Record
		if codec.FixedSize() > 0 {
			rs = g.Random(n)
		} else {
			rs = g.RandomVar(n, 20, 20)
		}
		enc, err := codec.AppendBlock(nil, rs)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeBlock(enc, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			if dec[i] != rs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", codec.Name(), i, dec[i], rs[i])
			}
		}
	})
}

// refVarParts and refCompareExt are the byte-slice parser VarParts and
// CompareExt replaced: each part copied out of the encoding, then
// compared. FuzzCompareExt holds the in-place parser to their answers.
func refVarParts(r Record) (key, payload []byte, err error) {
	if r.Ext == "" {
		return nil, nil, fmt.Errorf("record: VarParts of a fixed-size record")
	}
	klen, n := binary.Uvarint([]byte(r.Ext[:min(len(r.Ext), binary.MaxVarintLen32)]))
	if n <= 0 || int(klen) > len(r.Ext)-n {
		return nil, nil, fmt.Errorf("%w: key length %d overruns %d-byte record", ErrCorrupt, klen, len(r.Ext))
	}
	return []byte(r.Ext[n : n+int(klen)]), []byte(r.Ext[n+int(klen):]), nil
}

func refCompareExt(a, b string) int {
	ak, ap, aerr := refVarParts(Record{Ext: a})
	bk, bp, berr := refVarParts(Record{Ext: b})
	if aerr != nil || berr != nil {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if c := bytes.Compare(ak, bk); c != 0 {
		return c
	}
	return bytes.Compare(ap, bp)
}

// errClass buckets an error the way callers branch on it: none,
// corruption, or any other failure.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other"
}

// FuzzCompareExt checks the in-place encoding parser against the
// byte-slice reference on arbitrary byte strings, malformed key-length
// prefixes included: CompareExt must return the reference's sign, and
// VarParts the reference's bytes and error class, with a key that
// cannot be appended into the payload.
func FuzzCompareExt(f *testing.F) {
	valid := func(key, payload string) []byte {
		r, err := MakeVar([]byte(key), []byte(payload))
		if err != nil {
			f.Fatal(err)
		}
		return []byte(r.Ext)
	}
	f.Add(valid("AAAAAAAAAAAAAAAAZ", ""), valid("AAAAAAAAAAAAAAAAAB", ""))
	f.Add(valid("key", "p1"), valid("key", "p2"))
	f.Add(valid("", ""), []byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, valid("k", ""))
	f.Add([]byte{0x05, 'a'}, []byte{0x01, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}, []byte{0x00, 'x'})
	f.Add(valid("\xff\xff\xff\xff\xff\xff\xff\xff\x00", ""), valid("\xff\xff\xff\xff\xff\xff\xff\xfe\xff", ""))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, sb := string(a), string(b)
		if got, want := cmp.Compare(CompareExt(sa, sb), 0), cmp.Compare(refCompareExt(sa, sb), 0); got != want {
			t.Fatalf("CompareExt(%x, %x) sign %d, reference %d", a, b, got, want)
		}
		// The prefix words coarsen CompareExt: a record strictly below
		// another in (Key, Val) is strictly below it in full.
		ka, _, aerr := VarParts(Record{Ext: sa})
		kb, _, berr := VarParts(Record{Ext: sb})
		if aerr == nil && berr == nil {
			pa, va := extPrefixes(ka)
			pb, vb := extPrefixes(kb)
			if (pa < pb || (pa == pb && va < vb)) && CompareExt(sa, sb) >= 0 {
				t.Fatalf("prefix words (%#x, %#x) < (%#x, %#x) but CompareExt(%x, %x) >= 0", pa, va, pb, vb, a, b)
			}
		}
		for _, ext := range []string{sa, sb} {
			key, payload, err := VarParts(Record{Ext: ext})
			wantKey, wantPayload, wantErr := refVarParts(Record{Ext: ext})
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("VarParts(%x) error %v, reference %v", ext, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(key, wantKey) || !bytes.Equal(payload, wantPayload) {
				t.Fatalf("VarParts(%x) = %x, %x; reference %x, %x", ext, key, payload, wantKey, wantPayload)
			}
			if cap(key) != len(key) {
				t.Fatalf("VarParts(%x) key has spare capacity %d: an append would overwrite the payload", ext, cap(key)-len(key))
			}
		}
	})
}
