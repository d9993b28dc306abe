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
// payload; Key and Val become the prefix words described at Record.
func MakeVar(key, payload []byte) (Record, error) {
	var pre [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(pre[:], uint64(len(key)))
	total := n + len(key) + len(payload)
	if total > MaxVarRecordBytes {
		return Record{}, fmt.Errorf("record: variable-length record encodes to %d bytes, max %d",
			total, MaxVarRecordBytes)
	}
	ext := make([]byte, 0, total)
	ext = append(ext, pre[:n]...)
	ext = append(ext, key...)
	ext = append(ext, payload...)
	r := Record{Ext: string(ext)}
	r.Key, r.Val = extPrefixes(key)
	return r, nil
}

// VarParts splits a variable-length record back into its key and payload
// bytes. Records without an Ext (Fixed16 records) are rejected.
func VarParts(r Record) (key, payload []byte, err error) {
	if r.Ext == "" {
		return nil, nil, fmt.Errorf("record: VarParts of a fixed-size record")
	}
	klen, n := binary.Uvarint([]byte(r.Ext[:min(len(r.Ext), binary.MaxVarintLen32)]))
	if n <= 0 || int(klen) > len(r.Ext)-n {
		return nil, nil, fmt.Errorf("%w: key length %d overruns %d-byte record", ErrCorrupt, klen, len(r.Ext))
	}
	return []byte(r.Ext[n : n+int(klen)]), []byte(r.Ext[n+int(klen):]), nil
}

// extPrefixes derives the (Key, Val) prefix words of a variable-length
// key: Key is the big-endian first 8 bytes zero-padded (clamped below
// MaxKey, which the forecasting machinery reserves as its "no successor"
// sentinel — the clamp is monotone, so prefix order stays a coarsening
// of lexicographic order), Val the big-endian bytes 8..16 zero-padded.
func extPrefixes(key []byte) (Key, uint64) {
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
// prefix — so the key length is decoded first. Undecodable encodings
// (never produced by MakeVar; possible only for hand-built records)
// fall back to comparing the raw encodings, keeping the order total.
func CompareExt(a, b string) int {
	ak, ap, aerr := VarParts(Record{Ext: a})
	bk, bp, berr := VarParts(Record{Ext: b})
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
	for i := range rs {
		rs[i] = Rec16{
			Key: Key(binary.LittleEndian.Uint64(data[i*Bytes:])),
			Val: binary.LittleEndian.Uint64(data[i*Bytes+8:]),
		}
	}
	return rs, nil
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

// ReadRecord implements Codec.
func (Fixed16) ReadRecord(br *bufio.Reader) (Record, error) {
	var buf [Bytes]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: truncated %d-byte record: %v", ErrCorrupt, Bytes, err)
	}
	return Record{
		Key: Key(binary.LittleEndian.Uint64(buf[0:])),
		Val: binary.LittleEndian.Uint64(buf[8:]),
	}, nil
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

// AppendBlock implements Codec.
func (v Varlen) AppendBlock(dst []byte, rs []Record) ([]byte, error) {
	body := make([]byte, 0, len(rs)*32)
	var err error
	for _, r := range rs {
		if body, err = v.AppendRecord(body, r); err != nil {
			return nil, err
		}
	}
	if v.Flate {
		var zbuf bytes.Buffer
		zw, zerr := flate.NewWriter(&zbuf, flate.BestSpeed)
		if zerr != nil {
			return nil, zerr
		}
		if _, zerr = zw.Write(body); zerr == nil {
			zerr = zw.Close()
		}
		if zerr != nil {
			return nil, zerr
		}
		if zbuf.Len() < len(body) {
			dst = append(dst, varlenFlate)
			return append(dst, zbuf.Bytes()...), nil
		}
	}
	dst = append(dst, varlenRaw)
	return append(dst, body...), nil
}

// DecodeBlock implements Codec.
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
		zr := flate.NewReader(bytes.NewReader(body))
		inflated, err := io.ReadAll(io.LimitReader(zr, limit+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%w: inflating varlen block: %v", ErrCorrupt, err)
		}
		if int64(len(inflated)) > limit {
			return nil, fmt.Errorf("%w: varlen block inflates past its %d-byte bound", ErrCorrupt, limit)
		}
		body = inflated
	default:
		return nil, fmt.Errorf("%w: varlen block flag 0x%02x", ErrCorrupt, data[0])
	}
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
		r, err := recordFromExt(body[off+used : off+used+n])
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
func (Varlen) ReadRecord(br *bufio.Reader) (Record, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: record length prefix: %v", ErrCorrupt, err)
	}
	if n < 1 || n > MaxVarRecordBytes {
		return Record{}, fmt.Errorf("%w: record claims %d bytes, max %d", ErrCorrupt, n, MaxVarRecordBytes)
	}
	ext := make([]byte, n)
	if _, err := io.ReadFull(br, ext); err != nil {
		return Record{}, fmt.Errorf("%w: record truncated inside its %d bytes: %v", ErrCorrupt, n, err)
	}
	return recordFromExt(ext)
}

// recordFromExt rebuilds a Record from its canonical encoding, deriving
// the prefix words from the decoded key — the single source of truth, so
// a record decoded from disk is identical to the MakeVar original.
func recordFromExt(ext []byte) (Record, error) {
	klen, used := binary.Uvarint(ext[:min(len(ext), binary.MaxVarintLen32)])
	if used <= 0 || int(klen) > len(ext)-used {
		return Record{}, fmt.Errorf("%w: key length overruns %d-byte encoding", ErrCorrupt, len(ext))
	}
	r := Record{Ext: string(ext)}
	r.Key, r.Val = extPrefixes(ext[used : used+int(klen)])
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
