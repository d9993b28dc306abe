// Codec is the seam between in-memory records and their on-disk / wire
// encoding. The Fixed16 codec preserves the repository's original layout
// bit for bit: 16 bytes little-endian per record, 8 of key then 8 of
// payload, so every pre-codec file and benchmark baseline stays valid.
// The Varlen codec carries variable-length keys and payloads: each
// record's canonical encoding (Ext) is length-prefixed into the block,
// and the whole block body may optionally be flate-compressed. Both pack
// into the same CRC32-C checksummed FileStore blocks; the codec only
// owns the bytes between the checksum and the []Record.
//
// Decoding is defensive everywhere: truncated tails, overrunning length
// prefixes and bit-flipped varints all surface as errors wrapping
// ErrCorrupt — never a panic — because storage corruption that slips
// past a checksum (or arrives over the wire) must fail the operation,
// not the process.
package record

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// ErrCorrupt reports an encoding that cannot be decoded: a truncated
// tail, a length prefix overrunning its buffer, or an invalid varint.
var ErrCorrupt = errors.New("record: corrupt encoding")

// MaxVarRecordBytes caps one variable-length record's canonical encoding
// (uvarint key length + key + payload). It bounds the FileStore's
// per-block slot size and the wire reader's allocation per record.
const MaxVarRecordBytes = 1024

// Codec encodes records into block payloads and wire streams.
//
// Implementations must be stateless and safe for concurrent use: one
// codec value is shared by every disk worker of a sort.
type Codec interface {
	// Name is the codec's registry identity — what checkpoints record
	// and resumes verify.
	Name() string
	// FixedSize returns the exact encoded size of every record, or 0
	// when records encode to variable sizes. FixedSize > 0 lets the
	// FileStore keep its original one-pread slot layout.
	FixedSize() int
	// MaxRecordBytes is the worst-case wire encoding of one record.
	MaxRecordBytes() int
	// MaxBlockBytes is the worst-case encoded size of a block of nrec
	// records — what fixed-slot stores size their slots by.
	MaxBlockBytes(nrec int) int
	// AppendBlock appends the encoded block body for rs to dst.
	AppendBlock(dst []byte, rs []Record) ([]byte, error)
	// DecodeBlock decodes exactly nrec records from an encoded block
	// body. Any framing violation returns an error wrapping ErrCorrupt.
	DecodeBlock(data []byte, nrec int) ([]Record, error)
	// AppendRecord appends one record's wire encoding to dst (the
	// streaming input/output format of the library and sortd).
	AppendRecord(dst []byte, r Record) ([]byte, error)
	// ReadRecord decodes the next wire record from br. It returns
	// io.EOF exactly at a clean record boundary; a mid-record end of
	// input is corruption.
	ReadRecord(br *bufio.Reader) (Record, error)
}

// CodecByName resolves a codec identity. The empty name is Fixed16 — the
// pre-codec default, so zero configs keep their exact old behavior.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "fixed16":
		return Fixed16{}, nil
	case "varlen":
		return Varlen{}, nil
	case "varlen+flate":
		return Varlen{Flate: true}, nil
	default:
		return nil, fmt.Errorf("record: unknown codec %q (want fixed16, varlen or varlen+flate)", name)
	}
}

// CodecNames lists the registered codec identities, for CLI help text.
func CodecNames() []string { return []string{"fixed16", "varlen", "varlen+flate"} }

// MakeVar builds a variable-length record from its key and payload
// bytes. The canonical encoding (Ext) is uvarint(len(key)) || key ||
// payload, built in one allocation; Key and Val become the prefix words
// described at Record.
func MakeVar(key, payload []byte) (Record, error) {
	var pre [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(pre[:], uint64(len(key)))
	total := n + len(key) + len(payload)
	if total > MaxVarRecordBytes {
		return Record{}, fmt.Errorf("record: variable-length record encodes to %d bytes, max %d",
			total, MaxVarRecordBytes)
	}
	var ext strings.Builder
	ext.Grow(total)
	ext.Write(pre[:n])
	ext.Write(key)
	ext.Write(payload)
	r := Record{Ext: ext.String()}
	r.Key, r.Val = extPrefixes(key)
	return r, nil
}

// VarParts splits a variable-length record back into its key and payload
// bytes: one copy of the encoding's tail, the key a capacity-limited view
// of it (appending to the key never overwrites the payload) and the
// payload the rest. Records without an Ext (Fixed16 records) are
// rejected.
func VarParts(r Record) (key, payload []byte, err error) {
	if r.Ext == "" {
		return nil, nil, fmt.Errorf("record: VarParts of a fixed-size record")
	}
	klen, used, ok := splitExt(r.Ext)
	if !ok {
		return nil, nil, fmt.Errorf("%w: key length overruns %d-byte record", ErrCorrupt, len(r.Ext))
	}
	tail := []byte(r.Ext[used:])
	return tail[:klen:klen], tail[klen:], nil
}

// splitExt decodes the key length that heads a canonical encoding: the
// key is ext[used : used+klen] and the payload everything after it. ok
// is false when the first MaxVarintLen32 bytes hold no valid uvarint or
// the key overruns the encoding.
func splitExt[T string | []byte](ext T) (klen, used int, ok bool) {
	k, n := binary.Uvarint([]byte(ext[:min(len(ext), binary.MaxVarintLen32)]))
	if n <= 0 || k > uint64(len(ext)-n) {
		return 0, 0, false
	}
	return int(k), n, true
}

// extPrefixes derives the (Key, Val) prefix words of a variable-length
// key: Key is the big-endian first 8 bytes zero-padded (clamped below
// MaxKey, which the forecasting machinery reserves as its "no successor"
// sentinel — the clamp is monotone, so prefix order stays a coarsening
// of lexicographic order), Val the big-endian bytes 8..16 zero-padded.
func extPrefixes[T string | []byte](key T) (Key, uint64) {
	var w [16]byte
	copy(w[:], key)
	k := Key(binary.BigEndian.Uint64(w[0:8]))
	if k == MaxKey {
		k = MaxKey - 1
	}
	return k, binary.BigEndian.Uint64(w[8:16])
}

// CompareExt compares two canonical variable-length encodings under the
// full record order: key bytes lexicographically, then payload bytes.
// A raw bytes-compare of the encodings would be wrong — the uvarint key
// length would order a 9-byte key before a 10-byte key sharing its
// prefix — so the key length is decoded first, in place: CompareExt
// allocates nothing. Undecodable encodings (never produced by MakeVar;
// possible only for hand-built records) fall back to comparing the raw
// encodings, keeping the order total.
func CompareExt(a, b string) int {
	ak, an, aok := splitExt(a)
	bk, bn, bok := splitExt(b)
	if !aok || !bok {
		return strings.Compare(a, b)
	}
	if c := strings.Compare(a[an:an+ak], b[bn:bn+bk]); c != 0 {
		return c
	}
	return strings.Compare(a[an+ak:], b[bn+bk:])
}

// Fixed16 is the original record layout: 16 bytes little-endian per
// record, 8 of key then 8 of payload. Encoded blocks and wire streams
// are byte-identical to every pre-codec version of this repository.
type Fixed16 struct{}

// Name implements Codec.
func (Fixed16) Name() string { return "fixed16" }

// FixedSize implements Codec.
func (Fixed16) FixedSize() int { return Bytes }

// MaxRecordBytes implements Codec.
func (Fixed16) MaxRecordBytes() int { return Bytes }

// MaxBlockBytes implements Codec.
func (Fixed16) MaxBlockBytes(nrec int) int { return nrec * Bytes }

// AppendBlock implements Codec.
func (Fixed16) AppendBlock(dst []byte, rs []Record) ([]byte, error) {
	for _, r := range rs {
		var err error
		if dst, err = (Fixed16{}).AppendRecord(dst, r); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBlock implements Codec.
func (Fixed16) DecodeBlock(data []byte, nrec int) ([]Record, error) {
	if len(data) != nrec*Bytes {
		return nil, fmt.Errorf("%w: fixed16 block is %d bytes, want %d for %d records",
			ErrCorrupt, len(data), nrec*Bytes, nrec)
	}
	rs := make([]Record, nrec)
	for i := range rs {
		rs[i] = Record{
			Key: Key(binary.LittleEndian.Uint64(data[i*Bytes:])),
			Val: binary.LittleEndian.Uint64(data[i*Bytes+8:]),
		}
	}
	return rs, nil
}

// AppendBlock16 is AppendBlock for the pointer-free kernel record: it
// produces byte-identical output without widening through Record, so the
// fixed16 write path never materialises the 32-byte layout. It cannot
// fail — a Rec16 has no Ext to reject.
func (Fixed16) AppendBlock16(dst []byte, rs []Rec16) []byte {
	var buf [Bytes]byte
	for _, r := range rs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Key))
		binary.LittleEndian.PutUint64(buf[8:], r.Val)
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeBlock16 is DecodeBlock into the pointer-free kernel record: the
// fixed16 read path decodes straight into noscan []Rec16 buffers.
func (Fixed16) DecodeBlock16(data []byte, nrec int) ([]Rec16, error) {
	if len(data) != nrec*Bytes {
		return nil, fmt.Errorf("%w: fixed16 block is %d bytes, want %d for %d records",
			ErrCorrupt, len(data), nrec*Bytes, nrec)
	}
	rs := make([]Rec16, nrec)
	decode16(rs, data)
	return rs, nil
}

// decode16 decodes len(dst) fixed16 records from the front of data.
func decode16(dst []Rec16, data []byte) {
	for i := range dst {
		dst[i] = Rec16{
			Key: Key(binary.LittleEndian.Uint64(data[i*Bytes:])),
			Val: binary.LittleEndian.Uint64(data[i*Bytes+8:]),
		}
	}
}

// AppendRecord implements Codec.
func (Fixed16) AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.Ext != "" {
		return nil, fmt.Errorf("record: fixed16 codec cannot carry a variable-length record (%d ext bytes)", len(r.Ext))
	}
	var buf [Bytes]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.Key))
	binary.LittleEndian.PutUint64(buf[8:], r.Val)
	return append(dst, buf[:]...), nil
}

// ReadRecord implements Codec. It decodes straight from br's buffer
// (Peek, then Discard), so reading a record allocates nothing.
func (Fixed16) ReadRecord(br *bufio.Reader) (Record, error) {
	p, err := br.Peek(Bytes)
	if len(p) < Bytes {
		return Record{}, fixed16Tail(len(p), err)
	}
	r := Record{
		Key: Key(binary.LittleEndian.Uint64(p[0:])),
		Val: binary.LittleEndian.Uint64(p[8:]),
	}
	br.Discard(Bytes)
	return r, nil
}

// ReadBlock16 reads fixed16 wire records from br into dst until dst is
// full or the stream ends, decoding whole buffers of records straight
// from br (Peek, then Discard): no call and no allocation per record. It
// returns the number of records read, and — as ReadRecord would at the
// next record — io.EOF when the stream ends exactly at a record boundary
// and an error wrapping ErrCorrupt on a partial trailing record; either
// may come with n > 0 records read before it.
func (Fixed16) ReadBlock16(br *bufio.Reader, dst []Rec16) (n int, err error) {
	for n < len(dst) {
		p, err := br.Peek(min(len(dst)-n, br.Size()/Bytes) * Bytes)
		k := len(p) / Bytes
		decode16(dst[n:n+k], p)
		br.Discard(k * Bytes)
		n += k
		if err != nil {
			return n, fixed16Tail(len(p)-k*Bytes, err)
		}
	}
	return n, nil
}

// fixed16Tail is the error of a fixed16 read that found only tail bytes
// of a record before br reported err: io.EOF at a clean record boundary,
// corruption otherwise.
func fixed16Tail(tail int, err error) error {
	if tail == 0 && err == io.EOF {
		return io.EOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: truncated %d-byte record: %v", ErrCorrupt, Bytes, err)
}

// ReadBlock reads wire records of codec c from br into dst, under
// ReadBlock16's contract: it returns the number read, which is len(dst)
// unless the stream ended (io.EOF at a record boundary) or failed (an
// error wrapping ErrCorrupt for a malformed record), either possibly
// after n > 0 records. Records are framed one at a time by c.ReadRecord.
func ReadBlock(c Codec, br *bufio.Reader, dst []Record) (n int, err error) {
	for n < len(dst) {
		if dst[n], err = c.ReadRecord(br); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Block body flags of the Varlen codec: the first byte of every encoded
// block says whether the record bytes that follow are stored raw or
// flate-compressed (compression is per block and adaptive — a block
// that does not shrink is stored raw, so the format never expands).
const (
	varlenRaw   = 0x00
	varlenFlate = 0x01
)

// Varlen is the variable-length codec: each record travels as
// uvarint(len(Ext)) || Ext, where Ext is the canonical encoding built by
// MakeVar. With Flate set, block bodies additionally pass through
// DEFLATE when that makes them smaller.
type Varlen struct {
	// Flate enables per-block DEFLATE compression of the record bytes.
	Flate bool
}

// Name implements Codec.
func (v Varlen) Name() string {
	if v.Flate {
		return "varlen+flate"
	}
	return "varlen"
}

// FixedSize implements Codec.
func (Varlen) FixedSize() int { return 0 }

// MaxRecordBytes implements Codec.
func (Varlen) MaxRecordBytes() int {
	return uvarintLen(MaxVarRecordBytes) + MaxVarRecordBytes
}

// MaxBlockBytes implements Codec.
func (v Varlen) MaxBlockBytes(nrec int) int {
	// Flag byte + worst-case raw records. Compression never expands the
	// stored body (AppendBlock falls back to raw), so this bound holds
	// for both variants.
	return 1 + nrec*v.MaxRecordBytes()
}

// AppendBlock implements Codec. The raw body is appended straight into
// dst, so a caller that sizes dst by MaxBlockBytes encodes without
// allocating.
func (v Varlen) AppendBlock(dst []byte, rs []Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, varlenRaw)
	var err error
	for _, r := range rs {
		if dst, err = v.AppendRecord(dst, r); err != nil {
			return nil, err
		}
	}
	if v.Flate {
		body := dst[start+1:]
		z := deflaters.Get().(*deflater)
		defer deflaters.Put(z)
		z.out.Reset()
		z.w.Reset(&z.out)
		_, err = z.w.Write(body)
		if err == nil {
			err = z.w.Close()
		}
		if err != nil {
			return nil, err
		}
		if z.out.Len() < len(body) {
			dst = append(dst[:start], varlenFlate)
			return append(dst, z.out.Bytes()...), nil
		}
	}
	return dst, nil
}

// deflater is a pooled flate writer with its output buffer. Building a
// flate.Writer allocates its whole compressor state (hundreds of KB), so
// AppendBlock resets a pooled one instead of constructing one per block.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	z := new(deflater)
	z.w, _ = flate.NewWriter(&z.out, flate.BestSpeed) // a valid level never errors
	return z
}}

// inflater is a pooled flate reader with its source, bound and output:
// DecodeBlock resets it (flate.Resetter) onto each block instead of
// building a reader and its window per block.
type inflater struct {
	src   bytes.Reader
	r     io.ReadCloser
	limit io.LimitedReader
	out   bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.r = flate.NewReader(&z.src)
	z.limit.R = z.r
	return z
}}

// DecodeBlock implements Codec. The block body is copied once into a
// string and every record's Ext is a substring of it, so a block costs
// two allocations (that string and the record slice) however many
// records it holds, and no record aliases data.
func (v Varlen) DecodeBlock(data []byte, nrec int) ([]Record, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: varlen block has no flag byte", ErrCorrupt)
	}
	body := data[1:]
	switch data[0] {
	case varlenRaw:
	case varlenFlate:
		// Bound the inflation: a block can never legitimately exceed its
		// own worst-case raw size, so anything larger is corruption, not
		// an allocation request.
		limit := int64(v.MaxBlockBytes(nrec))
		z := inflaters.Get().(*inflater)
		defer inflaters.Put(z)
		z.src.Reset(body)
		err := z.r.(flate.Resetter).Reset(&z.src, nil)
		z.limit.N = limit + 1
		z.out.Reset()
		if err == nil {
			_, err = z.out.ReadFrom(&z.limit)
		}
		if cerr := z.r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%w: inflating varlen block: %v", ErrCorrupt, err)
		}
		if int64(z.out.Len()) > limit {
			return nil, fmt.Errorf("%w: varlen block inflates past its %d-byte bound", ErrCorrupt, limit)
		}
		body = z.out.Bytes()
	default:
		return nil, fmt.Errorf("%w: varlen block flag 0x%02x", ErrCorrupt, data[0])
	}
	text := string(body)
	rs := make([]Record, 0, nrec)
	off := 0
	for i := 0; i < nrec; i++ {
		n, used, err := uvarintAt(body, off)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d length prefix: %v", ErrCorrupt, i, err)
		}
		if n < 1 || n > MaxVarRecordBytes || off+used+n > len(body) {
			return nil, fmt.Errorf("%w: record %d claims %d bytes with %d remaining",
				ErrCorrupt, i, n, len(body)-off-used)
		}
		r, err := recordFromExt(text[off+used : off+used+n])
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		rs = append(rs, r)
		off += used + n
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(body)-off, nrec)
	}
	return rs, nil
}

// AppendRecord implements Codec.
func (Varlen) AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.Ext == "" {
		return nil, fmt.Errorf("record: varlen codec needs records built by MakeVar (record %v has no encoding)",
			Record{Key: r.Key, Val: r.Val})
	}
	var pre [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(pre[:], uint64(len(r.Ext)))
	dst = append(dst, pre[:n]...)
	return append(dst, r.Ext...), nil
}

// ReadRecord implements Codec.
func (v Varlen) ReadRecord(br *bufio.Reader) (Record, error) {
	ext, peeked, err := v.frame(br)
	if err != nil {
		return Record{}, err
	}
	r, err := recordFromExt(string(ext))
	if peeked {
		br.Discard(len(ext))
	}
	return r, err
}

// SkipRecord advances br past the next wire record without building it,
// returning the size of its canonical encoding. It makes exactly
// ReadRecord's checks — the length prefix, the size bound, a truncated
// tail and the key length inside the encoding — with the same errors,
// so a stream SkipRecord walks to io.EOF is one ReadRecord decodes.
func (v Varlen) SkipRecord(br *bufio.Reader) (int, error) {
	ext, peeked, err := v.frame(br)
	if err != nil {
		return 0, err
	}
	if _, _, ok := splitExt(ext); !ok {
		return 0, fmt.Errorf("%w: key length overruns %d-byte encoding", ErrCorrupt, len(ext))
	}
	if peeked {
		br.Discard(len(ext))
	}
	return len(ext), nil
}

// frame reads the next wire record's length prefix and returns its
// canonical encoding. The encoding is peeked from br's buffer (valid
// until br's next read; the caller discards it) when it fits there, and
// otherwise read into a fresh slice (peeked false, already consumed).
func (Varlen) frame(br *bufio.Reader) (ext []byte, peeked bool, err error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, false, io.EOF
		}
		return nil, false, fmt.Errorf("%w: record length prefix: %v", ErrCorrupt, err)
	}
	if n < 1 || n > MaxVarRecordBytes {
		return nil, false, fmt.Errorf("%w: record claims %d bytes, max %d", ErrCorrupt, n, MaxVarRecordBytes)
	}
	if int(n) <= br.Size() {
		ext, err = br.Peek(int(n))
		peeked = true
	} else {
		ext = make([]byte, n)
		_, err = io.ReadFull(br, ext)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, fmt.Errorf("%w: record truncated inside its %d bytes: %v", ErrCorrupt, n, err)
	}
	return ext, peeked, nil
}

// recordFromExt rebuilds a Record from its canonical encoding, deriving
// the prefix words from the decoded key — the single source of truth, so
// a record decoded from disk is identical to the MakeVar original.
func recordFromExt(ext string) (Record, error) {
	klen, used, ok := splitExt(ext)
	if !ok {
		return Record{}, fmt.Errorf("%w: key length overruns %d-byte encoding", ErrCorrupt, len(ext))
	}
	r := Record{Ext: ext}
	r.Key, r.Val = extPrefixes(ext[used : used+klen])
	return r, nil
}

// uvarintAt decodes a uvarint at data[off:], returning the value and the
// bytes consumed.
func uvarintAt(data []byte, off int) (int, int, error) {
	if off >= len(data) {
		return 0, 0, fmt.Errorf("no bytes at offset %d", off)
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("invalid uvarint at offset %d", off)
	}
	return int(v), n, nil
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}
