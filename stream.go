package srmsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// The streaming interface sorts records serialised in the configured
// codec's wire format. Under the default fixed16 codec each record is 16
// bytes little-endian — 8 bytes of key followed by 8 bytes of payload —
// and WriteRecords and ReadRecords convert between that format and
// []Record. The varlen codecs frame each record as a uvarint total
// length followed by the canonical encoding (uvarint key length, key
// bytes, payload bytes); WriteVarRecords and ReadVarRecords convert
// between that format and []VarRecord.

// RecordWireSize is the encoded size of one fixed16 record in bytes.
const RecordWireSize = 16

// WriteRecords encodes records to w in the wire format.
func WriteRecords(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	var buf [RecordWireSize]byte
	for _, r := range records {
		binary.LittleEndian.PutUint64(buf[0:], r.Key)
		binary.LittleEndian.PutUint64(buf[8:], r.Val)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRecords decodes all records from r. The input length must be a
// multiple of RecordWireSize.
func ReadRecords(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var out []Record
	var buf [RecordWireSize]byte
	for {
		n, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("srmsort: truncated record stream (%d trailing bytes)", n)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, Record{
			Key: binary.LittleEndian.Uint64(buf[0:]),
			Val: binary.LittleEndian.Uint64(buf[8:]),
		})
	}
}

// WriteVarRecords encodes variable-length records to w in the varlen wire
// format (the input SortStream expects under a varlen codec).
func WriteVarRecords(w io.Writer, records []VarRecord) error {
	bw := bufio.NewWriter(w)
	codec := record.Varlen{}
	var buf []byte
	for i, r := range records {
		rec, err := record.MakeVar(r.Key, r.Payload)
		if err != nil {
			return fmt.Errorf("srmsort: record %d: %w", i, err)
		}
		if buf, err = codec.AppendRecord(buf[:0], rec); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadVarRecords decodes all variable-length records from r (the varlen
// wire format SortStream emits under a varlen codec).
func ReadVarRecords(r io.Reader) ([]VarRecord, error) {
	br := bufio.NewReader(r)
	codec := record.Varlen{}
	var out []VarRecord
	for {
		rec, err := codec.ReadRecord(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("srmsort: record %d: %w", len(out), err)
		}
		key, payload, err := record.VarParts(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, VarRecord{Key: key, Payload: payload})
	}
}

// SortStream reads wire-format records from r, sorts them under cfg, and
// writes the sorted stream to w. It returns the sort statistics.
//
// The sort is fully out of core: records flow from r onto the simulated
// disks one stripe at a time and from the final run to w one block at a
// time, so host memory stays O(M + store). Combined with
// Config.Backend: FileBackend this sorts inputs larger than RAM. The
// full Config surface applies — including Checkpoint, Retry, Progress
// and Gate — so a streamed sort is recoverable via ResumeStream exactly
// like a slice sort is via Resume. As in Sort, a fixed16 record with the
// reserved key 2^64−1 fails the sort with an error naming the record.
func SortStream(r io.Reader, w io.Writer, cfg Config) (Stats, error) {
	return streamSort(r, w, cfg, false)
}

// ResumeStream is Resume for the streaming interface: it continues a
// checkpointed streamed sort that a crash (or kill) interrupted, writing
// the sorted stream to w. The original unsorted input is re-read from r
// only when no intact checkpoint manifest survived (the restart-from-
// scratch path); when one did, r is not touched and may be nil. This is
// how the sortd server recovers a job after a process restart: the
// job's persisted input feeds r, the job's store holds the manifest.
func ResumeStream(r io.Reader, w io.Writer, cfg Config) (Stats, error) {
	return streamSort(r, w, cfg, true)
}

// wireBufBytes sizes the buffers between a stream sort and its reader and
// writer.
const wireBufBytes = 64 << 10

// streamSort is SortStream and ResumeStream. Records cross the wire a
// block at a time: a fixed16 stream decodes straight into blocks of
// record.Rec16 and the final run encodes straight from them into the
// writer's buffer — the fixed16 wire format is its block format — while
// a varlen stream frames records one by one into whole blocks for the
// loader and encodes each block's records into the writer's buffer.
func streamSort(r io.Reader, w io.Writer, cfg Config, resume bool) (Stats, error) {
	codec, err := cfg.codec()
	if err != nil {
		return Stats{}, err
	}
	bw := bufio.NewWriterSize(w, max(wireBufBytes, cfg.B*record.Bytes))
	var stats Stats
	if wideKernel(codec) {
		read := func(br *bufio.Reader, dst []record.Record) (int, error) { return record.ReadBlock(codec, br, dst) }
		stats, err = runSort(cfg, codec, resume, 0, wireFeed(r, cfg.B, read),
			func(blk []record.Record) error {
				for _, rec := range blk {
					if bw.Available() < codec.MaxRecordBytes() {
						if err := bw.Flush(); err != nil {
							return err
						}
					}
					buf, err := codec.AppendRecord(bw.AvailableBuffer(), rec)
					if err != nil {
						return err
					}
					if _, err := bw.Write(buf); err != nil {
						return err
					}
				}
				return nil
			})
	} else {
		stats, err = runSort(cfg, codec, resume, 0, wireFeed(r, cfg.B, record.Fixed16{}.ReadBlock16),
			func(blk []record.Rec16) error {
				if bw.Available() < len(blk)*record.Bytes {
					if err := bw.Flush(); err != nil {
						return err
					}
				}
				_, err := bw.Write(record.Fixed16{}.AppendBlock16(bw.AvailableBuffer(), blk))
				return err
			})
	}
	if err != nil {
		return Stats{}, err
	}
	if err := bw.Flush(); err != nil {
		return Stats{}, err
	}
	return stats, nil
}

// wireFeed decodes the wire stream r into blocks of b records from the
// store's pool (pdisk.NewBlock) with read (a block reader under
// record.ReadBlock's contract) and hands each to the loader. A malformed record fails the sort with its index.
func wireFeed[R record.KernelRecord](r io.Reader, b int, read func(*bufio.Reader, []R) (int, error)) recordFeed[R] {
	return func(load func([]R) error) error {
		if r == nil {
			return fmt.Errorf("srmsort: no checkpoint manifest to resume from and no input stream to restart with")
		}
		br := bufio.NewReaderSize(r, wireBufBytes)
		for n := 0; ; {
			blk := pdisk.NewBlock[R](b)[:b]
			k, err := read(br, blk)
			if k > 0 {
				if err := load(blk[:k]); err != nil {
					return err
				}
				n += k
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("srmsort: input record %d: %w", n, err)
			}
		}
	}
}
