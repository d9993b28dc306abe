package pdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"srmsort/internal/record"
)

// FileStore keeps each simulated disk in a pair of preallocated files, so
// the algorithms move real, serialised bytes through the OS:
//
//   - diskNNN.dat — the data file: record payloads only, block i's records
//     at byte offset i*B*16 (record.Bytes = 16). A fully written run is a
//     plain array of records on disk.
//   - diskNNN.idx — the meta sidecar: one fixed slot per block holding
//     occupancy, record count, forecast count, write epoch, a CRC32-C
//     checksum and the implanted forecast keys of the paper's Section 4.
//
// Every block is checksummed: the CRC32-C (Castagnoli) in the meta slot
// covers the block's address, the store's write epoch (a generation
// counter bumped on every open, persisted in the sidecar "epoch" file),
// the record and forecast counts, the forecast keys and the full record
// payload. A torn data write, a misdirected write (payload landing at the
// wrong address) or a stale slot therefore surfaces at read time as a
// distinct ErrCorrupt — never as silently wrong records — and Scrub can
// audit the whole store without the algorithms' help.
//
// Both files grow in preallocation chunks (Truncate) ahead of the write
// frontier, and transfers are positional reads/writes (pread/pwrite).
// Close fsyncs a store whose files survive it: they are left on disk — a
// store can be reopened over the same directory with NewFileStore, which
// recovers occupancy from the meta files (the crash-consistency story).
// Remove discards a store instead: it closes the files without an fsync
// and deletes them, so scratch disks a sort throws away never pay for a
// flush to the media. Checkpointed sorts make their own durability point
// with Sync before each manifest. A small opaque manifest
// (ManifestStore) rides alongside in manifest.json, replaced atomically
// via rename so checkpoint state is never torn.
type FileStore struct {
	dir         string
	b           int
	maxForecast int
	codec       record.Codec
	fixed16     bool   // codec is record.Fixed16: blocks round-trip as []record.Rec16, never widening
	varlen      bool   // codec.FixedSize() == 0: length-prefixed slots
	dataSlot    int64  // bytes per block in the data file: B * record.Bytes (fixed) or codec.MaxBlockBytes(B) (varlen)
	metaSlot    int64  // bytes per block in the meta file
	metaHeader  int    // meta slot header bytes (varlen slots add a payload-length field)
	epoch       uint32 // write epoch: open generation, folded into block CRCs

	// scratch pools the per-call encode/decode buffers, sized to hold
	// either slot, so steady-state block I/O allocates no byte buffers.
	// The pool stores *[]byte to avoid an allocation per Put (a plain
	// []byte interface value would escape).
	scratch sync.Pool

	mu     sync.Mutex
	disks  map[int]*diskFiles
	closed bool
}

// diskFiles is the backing state of one simulated disk.
type diskFiles struct {
	data, meta *os.File
	alloc      int    // slots preallocated in both files
	present    []bool // per-slot occupancy, mirrored in the meta file
	resident   int64
	fcArena    []record.Key // carved into the forecasts of the blocks read; guarded by FileStore.mu
}

// fcArenaKeys is the size of a disk's forecast arena chunk: one
// allocation serves the forecasts of about that many blocks read.
const fcArenaKeys = 512

const (
	// preallocSlots is the file-growth quantum: whenever a write lands
	// beyond the allocated region, both files are extended to the next
	// multiple of this many slots.
	preallocSlots = 512

	// Meta slot header: uint32 state | nRec | nFc | epoch | crc32c.
	// Fixed-size codecs stop there — the data slot's occupied prefix is
	// nRec * FixedSize, so pre-codec files parse unchanged. Variable-length
	// codecs append one more uint32: the encoded payload's byte length.
	metaHeaderBytes       = 20
	metaHeaderVarlenBytes = 24

	slotAbsent  = 0
	slotPresent = 1
)

// castagnoli is the CRC32-C polynomial table shared by all FileStores.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockCRC computes the per-block CRC32-C over everything that
// identifies a block: its address, the write epoch, the counts, the
// encoded forecast keys and the encoded record payload. Folding the
// address in is what turns a misdirected write into a checksum mismatch
// rather than plausible-looking foreign data.
func blockCRC(addr BlockAddr, epoch uint32, nRec, nFc int, forecast, payload []byte) uint32 {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(addr.Disk))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(addr.Index))
	binary.LittleEndian.PutUint32(hdr[12:], epoch)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(nRec))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(nFc))
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, forecast)
	return crc32.Update(crc, castagnoli, payload)
}

// NewFileStore creates (or reopens) a file-backed store under dir, one
// data+meta file pair per disk. b is the block size in records;
// maxForecast the largest number of forecast keys any block carries (D
// for SRM runs — block 0 implants D keys). Existing disk files in dir are
// recovered: their occupancy is rebuilt from the meta sidecars, so blocks
// written by a previous store instance read back intact.
func NewFileStore(dir string, b, maxForecast int) (*FileStore, error) {
	return NewFileStoreCodec(dir, b, maxForecast, record.Fixed16{})
}

// NewFileStoreCodec is NewFileStore with an explicit record codec. A
// fixed-size codec keeps the original slot layout (block i's payload at
// byte offset i*B*FixedSize, occupied prefix nRec*FixedSize); a
// variable-length codec sizes each data slot to the codec's worst case,
// records the encoded payload length in the meta slot, and checksums the
// encoded bytes. A store must be reopened with the codec it was written
// with — checkpoint manifests record the codec identity and verify it on
// resume.
func NewFileStoreCodec(dir string, b, maxForecast int, codec record.Codec) (*FileStore, error) {
	if b < 1 {
		return nil, fmt.Errorf("pdisk: FileStore block size %d", b)
	}
	if maxForecast < 0 {
		return nil, fmt.Errorf("pdisk: FileStore maxForecast %d", maxForecast)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	_, fixed16 := codec.(record.Fixed16)
	f := &FileStore{
		dir:         dir,
		b:           b,
		maxForecast: maxForecast,
		codec:       codec,
		fixed16:     fixed16,
		varlen:      codec.FixedSize() == 0,
		metaHeader:  metaHeaderBytes,
		disks:       make(map[int]*diskFiles),
	}
	if f.varlen {
		f.metaHeader = metaHeaderVarlenBytes
		f.dataSlot = int64(codec.MaxBlockBytes(b))
	} else {
		f.dataSlot = int64(b) * int64(codec.FixedSize())
	}
	f.metaSlot = int64(f.metaHeader) + int64(maxForecast)*8
	// One scratch buffer holds a data slot and a meta slot side by side:
	// the checksum spans both (payload and forecast), so both encodings
	// must be live at once.
	slot := f.dataSlot + f.metaSlot
	f.scratch.New = func() any {
		buf := make([]byte, slot)
		return &buf
	}
	if err := f.bumpEpoch(); err != nil {
		return nil, err
	}
	if err := f.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// epochPath is the sidecar file persisting the open-generation counter.
func (f *FileStore) epochPath() string { return filepath.Join(f.dir, "epoch") }

// bumpEpoch reads the store's open-generation counter, increments it and
// persists it back, so every open writes blocks under a fresh epoch.
func (f *FileStore) bumpEpoch() error {
	var prev uint32
	if raw, err := os.ReadFile(f.epochPath()); err == nil && len(raw) >= 4 {
		prev = binary.LittleEndian.Uint32(raw)
	} else if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.epoch = prev + 1
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], f.epoch)
	return os.WriteFile(f.epochPath(), buf[:], 0o644)
}

func (f *FileStore) dataPath(disk int) string {
	return filepath.Join(f.dir, fmt.Sprintf("disk%03d.dat", disk))
}

func (f *FileStore) metaPath(disk int) string {
	return filepath.Join(f.dir, fmt.Sprintf("disk%03d.idx", disk))
}

// recover opens any disk files already present in dir and rebuilds their
// occupancy from the meta sidecars.
func (f *FileStore) recover() error {
	names, err := filepath.Glob(filepath.Join(f.dir, "disk*.dat"))
	if err != nil {
		return err
	}
	for _, name := range names {
		var disk int
		if _, err := fmt.Sscanf(filepath.Base(name), "disk%d.dat", &disk); err != nil {
			continue
		}
		df, err := f.openDisk(disk)
		if err != nil {
			return err
		}
		fi, err := df.meta.Stat()
		if err != nil {
			return err
		}
		df.alloc = int(fi.Size() / f.metaSlot)
		df.present = make([]bool, df.alloc)
		buf := make([]byte, f.metaSlot)
		for i := 0; i < df.alloc; i++ {
			if _, err := df.meta.ReadAt(buf[:4], int64(i)*f.metaSlot); err != nil {
				return fmt.Errorf("pdisk: recover %s slot %d: %w", f.metaPath(disk), i, err)
			}
			if binary.LittleEndian.Uint32(buf) == slotPresent {
				df.present[i] = true
				df.resident++
			}
		}
	}
	return nil
}

// openDisk opens (creating if absent) the file pair of one disk and
// registers it. Caller holds no locks or the store lock; recovery and
// disk both serialise through f.mu in their callers' paths.
func (f *FileStore) openDisk(disk int) (*diskFiles, error) {
	data, err := os.OpenFile(f.dataPath(disk), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	meta, err := os.OpenFile(f.metaPath(disk), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		data.Close()
		return nil, err
	}
	df := &diskFiles{data: data, meta: meta}
	f.disks[disk] = df
	return df, nil
}

// disk returns the backing state of a disk, opening it on first use, and
// guarantees index < alloc by preallocating ahead of the write frontier
// when grow is true.
func (f *FileStore) disk(disk, index int, grow bool) (*diskFiles, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("%w: FileStore used after Close", ErrInvalid)
	}
	df, ok := f.disks[disk]
	if !ok {
		if !grow {
			return nil, fmt.Errorf("%w: no block at %v", ErrAbsent, BlockAddr{Disk: disk, Index: index})
		}
		var err error
		if df, err = f.openDisk(disk); err != nil {
			return nil, err
		}
	}
	if index >= df.alloc {
		if !grow {
			return nil, fmt.Errorf("%w: no block at %v", ErrAbsent, BlockAddr{Disk: disk, Index: index})
		}
		alloc := (index/preallocSlots + 1) * preallocSlots
		if err := df.data.Truncate(int64(alloc) * f.dataSlot); err != nil {
			return nil, err
		}
		if err := df.meta.Truncate(int64(alloc) * f.metaSlot); err != nil {
			return nil, err
		}
		grown := make([]bool, alloc)
		copy(grown, df.present)
		df.present = grown
		df.alloc = alloc
	}
	return df, nil
}

// WriteBlock implements Store: pwrite of the records at index*B*16 in the
// data file, then of the checksummed occupancy slot in the meta file.
func (f *FileStore) WriteBlock(addr BlockAddr, b StoredBlock) error {
	return f.writeBlock(addr, b, false)
}

// WriteBlockTorn is WriteBlock with a deliberately torn data transfer:
// the meta slot (checksum included) describes the full payload, but only
// the first half of the record bytes reach the data file — the on-disk
// state a crash in mid-write leaves behind. The next ReadBlock of the
// address fails with ErrCorrupt. FaultStore's TornWriteProb drives it;
// nothing else should.
func (f *FileStore) WriteBlockTorn(addr BlockAddr, b StoredBlock) error {
	return f.writeBlock(addr, b, true)
}

func (f *FileStore) writeBlock(addr BlockAddr, b StoredBlock, torn bool) error {
	if addr.Disk < 0 || addr.Index < 0 {
		return fmt.Errorf("%w: write to invalid address %v", ErrInvalid, addr)
	}
	nRec := b.NumRecords()
	if nRec > f.b {
		return fmt.Errorf("%w: block of %d records exceeds slot capacity %d", ErrInvalid, nRec, f.b)
	}
	if len(b.Forecast) > f.maxForecast {
		return fmt.Errorf("%w: block carries %d forecast keys, slot capacity %d", ErrInvalid, len(b.Forecast), f.maxForecast)
	}
	df, err := f.disk(addr.Disk, addr.Index, true)
	if err != nil {
		return err
	}

	// Both transfers encode through one pooled scratch buffer — the data
	// slot and meta slot side by side, so the steady-state write path
	// allocates nothing and the checksum can span payload and forecast.
	// The codec owns the payload bytes; its worst case never exceeds the
	// data slot, so the encode stays inside the scratch buffer.
	bufp := f.scratch.Get().(*[]byte)
	defer f.scratch.Put(bufp)

	var data []byte
	if b.Recs16 != nil {
		// Pointer-free blocks encode directly (the fixed16 hot path never
		// widens); any fixed-size codec produces the same 16-byte layout,
		// and a varlen store cannot legally receive them anyway.
		if fc, ok := f.codec.(record.Fixed16); ok {
			data = fc.AppendBlock16((*bufp)[:0], b.Recs16)
		} else {
			var err error
			if data, err = f.codec.AppendBlock((*bufp)[:0], b.Wide()); err != nil {
				return fmt.Errorf("%w: encoding block for %v: %v", ErrInvalid, addr, err)
			}
		}
	} else {
		var err error
		if data, err = f.codec.AppendBlock((*bufp)[:0], b.Records); err != nil {
			return fmt.Errorf("%w: encoding block for %v: %v", ErrInvalid, addr, err)
		}
	}
	if int64(len(data)) > f.dataSlot {
		return fmt.Errorf("%w: block at %v encodes to %d bytes, slot is %d", ErrInvalid, addr, len(data), f.dataSlot)
	}

	meta := (*bufp)[f.dataSlot : f.dataSlot+f.metaSlot]
	clear(meta[f.metaHeader+len(b.Forecast)*8:]) // byte-exact files: zero the unused forecast tail
	binary.LittleEndian.PutUint32(meta[0:], slotPresent)
	binary.LittleEndian.PutUint32(meta[4:], uint32(nRec))
	binary.LittleEndian.PutUint32(meta[8:], uint32(len(b.Forecast)))
	binary.LittleEndian.PutUint32(meta[12:], f.epoch)
	if f.varlen {
		binary.LittleEndian.PutUint32(meta[20:], uint32(len(data)))
	}
	for i, k := range b.Forecast {
		binary.LittleEndian.PutUint64(meta[f.metaHeader+i*8:], uint64(k))
	}
	crc := blockCRC(addr, f.epoch, nRec, len(b.Forecast),
		meta[f.metaHeader:f.metaHeader+len(b.Forecast)*8], data)
	binary.LittleEndian.PutUint32(meta[16:], crc)

	if torn {
		// Commit only half the payload; an empty payload tears in the
		// header instead (flipped checksum) so the damage is detectable
		// either way.
		data = data[:len(data)/2]
		if len(data) == 0 {
			binary.LittleEndian.PutUint32(meta[16:], crc^0xdeadbeef)
		}
	}
	if _, err := df.data.WriteAt(data, int64(addr.Index)*f.dataSlot); err != nil {
		return err
	}
	if _, err := df.meta.WriteAt(meta, int64(addr.Index)*f.metaSlot); err != nil {
		return err
	}

	f.mu.Lock()
	if !df.present[addr.Index] {
		df.present[addr.Index] = true
		df.resident++
	}
	f.mu.Unlock()
	return nil
}

// ReadBlock implements Store: pread of the meta slot, then of exactly the
// occupied prefix of the data slot, with the block checksum verified
// before any record is surfaced — a torn, misdirected or stale write
// reads back as ErrCorrupt, never as plausible records.
func (f *FileStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	if addr.Disk < 0 || addr.Index < 0 {
		return StoredBlock{}, fmt.Errorf("%w: no block at %v", ErrAbsent, addr)
	}
	df, err := f.disk(addr.Disk, addr.Index, false)
	if err != nil {
		return StoredBlock{}, err
	}
	f.mu.Lock()
	present := df.present[addr.Index]
	f.mu.Unlock()
	if !present {
		return StoredBlock{}, fmt.Errorf("%w: no block at %v", ErrAbsent, addr)
	}

	// One pooled scratch buffer serves both transfers, the meta slot and
	// the data slot side by side (the checksum spans both). Only the
	// returned records/forecast are allocated.
	bufp := f.scratch.Get().(*[]byte)
	defer f.scratch.Put(bufp)

	meta := (*bufp)[f.dataSlot : f.dataSlot+f.metaSlot]
	if _, err := df.meta.ReadAt(meta, int64(addr.Index)*f.metaSlot); err != nil {
		return StoredBlock{}, err
	}
	state := binary.LittleEndian.Uint32(meta[0:])
	nRec := binary.LittleEndian.Uint32(meta[4:])
	nFc := binary.LittleEndian.Uint32(meta[8:])
	epoch := binary.LittleEndian.Uint32(meta[12:])
	crcWant := binary.LittleEndian.Uint32(meta[16:])
	if state != slotPresent || int(nRec) > f.b || int(nFc) > f.maxForecast {
		return StoredBlock{}, fmt.Errorf("%w: slot header at %v (state=%d nRec=%d nFc=%d)",
			ErrCorrupt, addr, state, nRec, nFc)
	}
	payloadLen := int64(nRec) * int64(f.codec.FixedSize())
	if f.varlen {
		payloadLen = int64(binary.LittleEndian.Uint32(meta[20:]))
		if payloadLen > f.dataSlot {
			return StoredBlock{}, fmt.Errorf("%w: slot at %v claims a %d-byte payload, slot is %d",
				ErrCorrupt, addr, payloadLen, f.dataSlot)
		}
	}

	data := (*bufp)[:payloadLen]
	if payloadLen > 0 {
		if _, err := df.data.ReadAt(data, int64(addr.Index)*f.dataSlot); err != nil {
			return StoredBlock{}, err
		}
	}
	if got := blockCRC(addr, epoch, int(nRec), int(nFc),
		meta[f.metaHeader:f.metaHeader+int(nFc)*8], data); got != crcWant {
		return StoredBlock{}, fmt.Errorf("%w: checksum mismatch at %v (crc %#x, slot records %#x, epoch %d)",
			ErrCorrupt, addr, got, crcWant, epoch)
	}

	out := StoredBlock{}
	if nFc > 0 {
		out.Forecast = f.carveForecast(df, int(nFc))
		for i := range out.Forecast {
			out.Forecast[i] = record.Key(binary.LittleEndian.Uint64(meta[f.metaHeader+i*8:]))
		}
	}
	if nRec > 0 {
		if f.fixed16 {
			// The fixed16 read path decodes straight into the pointer-free
			// kernel layout; wide readers widen via RecsOf/Wide if they
			// must, the fixed16 kernel consumes the noscan slice as-is.
			recs, err := (record.Fixed16{}).DecodeBlock16(data, int(nRec))
			if err != nil {
				return StoredBlock{}, fmt.Errorf("%w: decoding block at %v: %v", ErrCorrupt, addr, err)
			}
			out.Recs16 = recs
		} else {
			recs, err := f.codec.DecodeBlock(data, int(nRec))
			if err != nil {
				return StoredBlock{}, fmt.Errorf("%w: decoding block at %v: %v", ErrCorrupt, addr, err)
			}
			out.Records = record.Block(recs)
		}
	}
	return out, nil
}

// carveForecast returns room for n forecast keys carved from disk df's
// arena, instead of a slice of its own per block read: each is a
// capacity-n sub-slice handed out once, so no append can reach a
// neighbour and no key is rewritten while a reader holds it.
func (f *FileStore) carveForecast(df *diskFiles, n int) []record.Key {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(df.fcArena) < n {
		df.fcArena = make([]record.Key, max(fcArenaKeys, n))
	}
	fc := df.fcArena[0:n:n]
	df.fcArena = df.fcArena[n:]
	return fc
}

// Free implements Store: the slot is marked absent in memory and in the
// meta file (so a reopened store agrees); file space is reclaimed only by
// Remove.
func (f *FileStore) Free(addr BlockAddr) error {
	if addr.Disk < 0 || addr.Index < 0 {
		return fmt.Errorf("%w: free of invalid address %v", ErrInvalid, addr)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("%w: FileStore used after Close", ErrInvalid)
	}
	df, ok := f.disks[addr.Disk]
	if !ok || addr.Index >= len(df.present) || !df.present[addr.Index] {
		f.mu.Unlock()
		return fmt.Errorf("%w: free of absent block %v", ErrAbsent, addr)
	}
	df.present[addr.Index] = false
	df.resident--
	f.mu.Unlock()

	var zero [4]byte // slotAbsent
	_, err := df.meta.WriteAt(zero[:], int64(addr.Index)*f.metaSlot)
	return err
}

// Frontier implements FrontierStore: the lowest index strictly above
// every occupied slot of disk, so NewSystem allocates past whatever a
// previous store instance (or a crash it survived) left behind.
func (f *FileStore) Frontier(disk int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("%w: FileStore used after Close", ErrInvalid)
	}
	df, ok := f.disks[disk]
	if !ok {
		return 0, nil
	}
	for i := len(df.present) - 1; i >= 0; i-- {
		if df.present[i] {
			return i + 1, nil
		}
	}
	return 0, nil
}

// Blocks implements BlockLister: every occupied slot, disk by disk.
func (f *FileStore) Blocks() []BlockAddr {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []BlockAddr
	for disk, df := range f.disks {
		for idx, p := range df.present {
			if p {
				out = append(out, BlockAddr{Disk: disk, Index: idx})
			}
		}
	}
	return out
}

// ScrubReport is the result of one Scrub pass.
type ScrubReport struct {
	Blocks  int         // occupied slots audited
	Corrupt []BlockAddr // slots whose checksum (or header) failed
}

// Scrub audits every occupied slot of the store: each block is read back
// and its checksum verified, without surfacing the records. Corrupt
// blocks — torn writes a crash left behind, bit rot, misdirected writes —
// are collected in the report rather than failing the pass; only
// infrastructure errors (an unreadable file) abort it. Callers decide
// whether a corrupt block is fatal: one covered by a checkpoint manifest
// can be freed and re-merged from its surviving inputs.
func (f *FileStore) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	for _, addr := range f.Blocks() {
		rep.Blocks++
		_, err := f.ReadBlock(addr)
		switch {
		case err == nil:
		case errors.Is(err, ErrCorrupt):
			rep.Corrupt = append(rep.Corrupt, addr)
		case errors.Is(err, ErrAbsent):
			// Freed between the listing and the read; not corruption.
			rep.Blocks--
		default:
			return rep, err
		}
	}
	return rep, nil
}

// checkOpen fails with ErrInvalid once the store is closed: the manifest
// calls are refused after Close like the block transfers.
func (f *FileStore) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("%w: FileStore used after Close", ErrInvalid)
	}
	return nil
}

// manifestPath is the checkpoint manifest's file; manifestTmpPath the
// staging name its atomic replacement writes through.
func (f *FileStore) manifestPath() string    { return filepath.Join(f.dir, "manifest.json") }
func (f *FileStore) manifestTmpPath() string { return filepath.Join(f.dir, "manifest.json.tmp") }

// SaveManifest implements ManifestStore: write-to-temp, fsync, rename —
// after any crash the manifest file is either the old state or the new
// one, never a torn mix.
func (f *FileStore) SaveManifest(data []byte) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	tmp, err := os.OpenFile(f.manifestTmpPath(), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(f.manifestTmpPath(), f.manifestPath())
}

// LoadManifest implements ManifestStore.
func (f *FileStore) LoadManifest() ([]byte, bool, error) {
	if err := f.checkOpen(); err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(f.manifestPath())
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// ClearManifest implements ManifestStore.
func (f *FileStore) ClearManifest() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if err := os.Remove(f.manifestPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Usage implements Store. Blocks counts occupied slots; Bytes the
// preallocated file space of both files of every disk.
func (f *FileStore) Usage() Usage {
	f.mu.Lock()
	defer f.mu.Unlock()
	var u Usage
	for _, df := range f.disks {
		u.Blocks += df.resident
		u.Bytes += int64(df.alloc) * (f.dataSlot + f.metaSlot)
	}
	return u
}

// Sync fsyncs every disk file without closing the store.
func (f *FileStore) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var firstErr error
	for _, df := range f.disks {
		if err := df.data.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := df.meta.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close fsyncs and closes every disk file, leaving them on disk so the
// store can be reopened (or inspected) later. Idempotent.
func (f *FileStore) Close() error { return f.close(true) }

// close closes every disk file, fsyncing each first when sync is set.
// Idempotent: only the first call closes.
func (f *FileStore) close(sync bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var firstErr error
	for _, df := range f.disks {
		for _, fh := range []*os.File{df.data, df.meta} {
			if sync {
				if err := fh.Sync(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if err := fh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Remove discards the store: it closes the disk files (if still open)
// without an fsync — they are deleted next, so flushing them would be
// wasted I/O — and deletes them with the epoch counter and manifest. The
// directory itself is left in place.
func (f *FileStore) Remove() error {
	firstErr := f.close(false)
	f.mu.Lock()
	defer f.mu.Unlock()
	names := []string{f.epochPath(), f.manifestPath(), f.manifestTmpPath()}
	for disk := range f.disks {
		names = append(names, f.dataPath(disk), f.metaPath(disk))
	}
	for _, name := range names {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = err
		}
	}
	f.disks = nil
	return firstErr
}
