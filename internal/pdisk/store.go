package pdisk

import (
	"fmt"
	"sync"
	"unsafe"

	"srmsort/internal/record"
)

// Store is the persistence backend beneath a System: a block container
// indexed by BlockAddr. The System is a thin coordinator — it owns
// statistics, address checking and the I/O engine that schedules every
// operation — and delegates every byte of persistence to its Store, so
// the same merge algorithms run unchanged on process memory (MemStore),
// real files (FileStore) or a fault-injecting wrapper (FaultStore).
//
// Implementations must be safe for concurrent use — the engine's
// executors run one operation's transfers concurrently, and async
// operations in flight together may address the same disk — and must
// return errors — never panic — for missing blocks, so the simulator
// surfaces scheduling bugs as test failures on every backend alike.
type Store interface {
	// WriteBlock stores b at addr, overwriting any previous block.
	//
	// Ownership handoff: the block is the store's after the call, and the
	// caller must not modify it again — the System passes its callers'
	// blocks through without a copy, and MemStore keeps the block itself.
	// A store may read the block's arrays for as long as it holds it, but
	// never writes to them. Under the `aliascheck` build tag the System
	// records each block's checksum when the write is issued and verifies
	// it when the transfer runs, and MemStore verifies it again at every
	// read, free and Close.
	WriteBlock(addr BlockAddr, b StoredBlock) error
	// ReadBlock returns the block at addr; reading an absent block is an
	// error.
	//
	// Ownership handoff: the returned block is the caller's to hold and
	// re-slice until its address is freed, and its records and forecast
	// must be treated as immutable — the store may hand the same backing
	// arrays to other readers (MemStore returns its resident block without
	// a defensive copy; this is the merge kernel's zero-copy read path).
	// No merge-side consumer mutates blocks — they only advance slice
	// heads — and the `aliascheck` build tag arms a checksum guard in
	// MemStore that panics if any reader ever does. Once the address is
	// freed the block's records may be recycled into another block (see
	// NewBlock), so no reader may look at them after the free; under
	// `aliascheck` MemStore poisons them at the free.
	ReadBlock(addr BlockAddr) (StoredBlock, error)
	// Free releases the block at addr; freeing an absent block is an
	// error on every backend (double frees are scheduling bugs). MemStore
	// recycles the freed block's record array (see NewBlock).
	Free(addr BlockAddr) error
	// Usage reports the store's current capacity accounting.
	Usage() Usage
	// Close releases all resources held by the store. Close is
	// idempotent.
	Close() error
}

// SerialStore is optionally implemented by backends whose per-block
// transfers are cheap memory operations serialized behind an internal lock
// anyway (MemStore): SerialTransfers reporting true tells the System's
// engine to run one I/O operation's transfers in turn on one leg — on
// the caller when the op is sync and unbounded — rather than one executor
// per transfer, which for such a store costs far more than the transfers
// themselves. Backends with real per-block latency (FileStore) simply
// don't implement it and keep one leg per transfer.
type SerialStore interface {
	Store
	SerialTransfers() bool
}

// FrontierStore is optionally implemented by backends that can reopen
// pre-existing state (FileStore, MemStore, and the wrappers over them):
// Frontier reports the lowest block index strictly above every occupied
// slot on a disk. NewSystem seeds its per-disk bump allocator from it, so
// a System built over a reopened store never hands out an address that
// would clobber a recovered block. The error return exists because the
// allocator-seeding path is I/O on some backends (and fault-injectable on
// all of them): a failed Frontier aborts NewSystem rather than silently
// reusing addresses.
type FrontierStore interface {
	Store
	Frontier(disk int) (int, error)
}

// ManifestStore is optionally implemented by backends that can persist
// one small opaque manifest alongside the blocks — the checkpoint state
// of a multi-pass sort (see package srm). SaveManifest replaces the
// manifest atomically: after a crash, LoadManifest returns either the
// previous manifest or the new one, never a torn mix.
type ManifestStore interface {
	Store
	SaveManifest(data []byte) error
	// LoadManifest returns the manifest and whether one exists.
	LoadManifest() ([]byte, bool, error)
	ClearManifest() error
}

// BlockLister is optionally implemented by backends that can enumerate
// their resident blocks — what Scrub and orphan reclamation walk. The
// order is unspecified.
type BlockLister interface {
	Store
	Blocks() []BlockAddr
}

// Usage is a Store's capacity accounting: how many blocks are resident
// and how many bytes of backing storage they occupy. For MemStore, Bytes
// is the encoded size of the resident blocks; for FileStore it is the
// preallocated file space (slots are fixed-size, so Bytes >= the resident
// payload).
type Usage struct {
	Blocks int64
	Bytes  int64
}

// storedBytes is the encoded size of one block, the unit of MemStore's
// byte accounting and FileStore's data-slot sizing. Variable-length
// records add their Ext payload on top of the 16 prefix bytes. A Rec16
// block costs exactly what its widened twin would — the accounting is
// representation-independent.
func storedBytes(b StoredBlock) int64 {
	n := int64(b.NumRecords())*record.Bytes + int64(len(b.Forecast))*8
	for _, r := range b.Records {
		n += int64(len(r.Ext))
	}
	return n
}

// MemStore is the default Store: blocks held in process memory. It is the
// store the experiments run on (the paper's own evaluation is likewise a
// simulation).
//
// Each disk's blocks live in slots indexed by block index, in chunks of
// memChunkSlots consecutive slots: a lookup is two slice indexes, no
// hashing. The System's bump allocator hands out dense indexes per disk
// (FileStore's fixed slots rely on the same), so the chunk directory
// grows with the allocation frontier, one pointer per chunk. A chunk is
// allocated by the first write into it and dropped once every block in it
// is freed, so the store's footprint follows its resident blocks, not the
// frontier; freed slots are zeroed so their records can be collected. The
// last chunk dropped is kept as a spare for the next one needed, so a
// store that frees about as fast as it writes (a merge pass; one address
// written and freed over and over) allocates no chunks in steady state.
//
// Writes and reads are zero-copy: WriteBlock keeps the block it is given
// and ReadBlock returns the resident block itself, under the Store
// ownership-handoff contracts (neither writers nor readers modify a block
// once written, and readers let go of it when its address is freed).
// Free recycles the block's record array into the pool NewBlock draws
// from, so the blocks a sort frees become the blocks it writes next.
// Build with -tags=aliascheck to arm a per-block checksum that catches
// violations, poison each freed block's records and refuse an array that
// is already resident at another address.
type MemStore struct {
	mu       sync.RWMutex
	disks    [][]*memChunk                // disks[d][index/memChunkSlots]; nil = no resident block in that chunk
	spare    *memChunk                    // the last chunk dropped, all slots zero; nil = none
	sums     map[BlockAddr]uint64         // aliascheck only: content checksum at write
	arrays   map[unsafe.Pointer]BlockAddr // aliascheck only: where each resident record array lives
	blocks   int64
	bytes    int64
	manifest []byte // ManifestStore state; nil = no manifest
	closed   bool
}

// memChunkSlots is the number of consecutive block slots of one disk a
// MemStore chunk holds.
const memChunkSlots = 256

// memChunk is one run of memChunkSlots slots of a disk, and live the
// number of them holding a block.
type memChunk struct {
	live  int
	slots [memChunkSlots]memSlot
}

// memSlot holds one block; present tells a resident block from an empty
// slot, since a written block may itself be empty.
type memSlot struct {
	b       StoredBlock
	present bool
}

// errMemClosed is what every block op on a closed MemStore returns.
var errMemClosed = fmt.Errorf("%w: MemStore used after Close", ErrInvalid)

// NewMemStore returns an empty in-memory block store.
func NewMemStore() *MemStore {
	m := &MemStore{}
	if aliasCheck {
		m.sums = make(map[BlockAddr]uint64)
		m.arrays = make(map[unsafe.Pointer]BlockAddr)
	}
	return m
}

// slot returns the chunk and slot of addr, or nils when no chunk covers
// it. A negative disk or index converts to an out-of-range uint, so it is
// never covered.
func (m *MemStore) slot(addr BlockAddr) (*memChunk, *memSlot) {
	if uint(addr.Disk) >= uint(len(m.disks)) {
		return nil, nil
	}
	dir := m.disks[addr.Disk]
	ci := uint(addr.Index) / memChunkSlots
	if ci >= uint(len(dir)) || dir[ci] == nil {
		return nil, nil
	}
	c := dir[ci]
	return c, &c.slots[uint(addr.Index)%memChunkSlots]
}

// WriteBlock implements Store.
func (m *MemStore) WriteBlock(addr BlockAddr, b StoredBlock) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errMemClosed
	}
	if addr.Disk < 0 || addr.Index < 0 {
		return fmt.Errorf("%w: write to invalid address %v", ErrInvalid, addr)
	}
	if aliasCheck {
		m.claimArray(addr, b)
	}
	c, s := m.slot(addr)
	if c == nil {
		if n := addr.Disk + 1 - len(m.disks); n > 0 {
			m.disks = append(m.disks, make([][]*memChunk, n)...)
		}
		dir := m.disks[addr.Disk]
		ci := addr.Index / memChunkSlots
		if n := ci + 1 - len(dir); n > 0 {
			dir = append(dir, make([]*memChunk, n)...)
			m.disks[addr.Disk] = dir
		}
		if c = m.spare; c != nil {
			m.spare = nil
		} else {
			c = new(memChunk)
		}
		dir[ci] = c
		s = &c.slots[addr.Index%memChunkSlots]
	}
	if s.present {
		m.bytes -= storedBytes(s.b)
		if aliasCheck && arrayOf(s.b) != arrayOf(b) {
			delete(m.arrays, arrayOf(s.b))
		}
	} else {
		s.present = true
		c.live++
		m.blocks++
	}
	s.b = b
	m.bytes += storedBytes(b)
	if aliasCheck {
		m.sums[addr] = contentSum(b)
	}
	return nil
}

// ReadBlock implements Store. The returned block aliases the resident one
// — see the Store interface's ownership-handoff contract.
func (m *MemStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return StoredBlock{}, errMemClosed
	}
	_, s := m.slot(addr)
	if s == nil || !s.present {
		return StoredBlock{}, fmt.Errorf("%w: no block at %v", ErrAbsent, addr)
	}
	if aliasCheck {
		m.verifySum(addr, s.b)
	}
	return s.b, nil
}

// Free implements Store. The slot is zeroed, its chunk dropped once it
// holds no block, and the block's record array recycled (see NewBlock).
func (m *MemStore) Free(addr BlockAddr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errMemClosed
	}
	c, s := m.slot(addr)
	if s == nil || !s.present {
		return fmt.Errorf("%w: free of absent block %v", ErrAbsent, addr)
	}
	b := s.b
	if aliasCheck {
		m.verifySum(addr, b)
		delete(m.sums, addr)
		delete(m.arrays, arrayOf(b))
	}
	m.blocks--
	m.bytes -= storedBytes(b)
	*s = memSlot{}
	if c.live--; c.live == 0 {
		m.disks[addr.Disk][addr.Index/memChunkSlots] = nil
		m.spare = c
	}
	recycle(b)
	return nil
}

// claimArray panics if b's record array is already resident at an
// address other than addr, and records it at addr: one array, one
// address. A writer that stored a block it read (instead of a copy)
// would hand one array to two slots, and freeing either would recycle
// records the other still serves. Called only under -tags=aliascheck.
func (m *MemStore) claimArray(addr BlockAddr, b StoredBlock) {
	p := arrayOf(b)
	if p == nil {
		return
	}
	if at, ok := m.arrays[p]; ok && at != addr {
		panic(fmt.Sprintf("pdisk: aliascheck: block written to %v shares its record array with the block resident at %v", addr, at))
	}
	m.arrays[p] = addr
}

// each calls fn on every resident block, disk by disk in index order.
func (m *MemStore) each(fn func(BlockAddr, StoredBlock)) {
	for disk, dir := range m.disks {
		for ci, c := range dir {
			if c == nil {
				continue
			}
			for i := range c.slots {
				if c.slots[i].present {
					fn(BlockAddr{Disk: disk, Index: ci*memChunkSlots + i}, c.slots[i].b)
				}
			}
		}
	}
}

// verifySum panics if the resident block no longer matches the checksum
// recorded when it was written — a holder of the block modified it: a
// reader that received it through the zero-copy ReadBlock path, or its
// writer after the write. Compiled in only under -tags=aliascheck.
func (m *MemStore) verifySum(addr BlockAddr, b StoredBlock) {
	checkSum(addr, b, m.sums[addr], "a reader or its writer violated the Store ownership contract")
}

// checkSum panics if b no longer matches want, the checksum recorded when
// its write was issued or stored; culprit names who broke the ownership
// contract. Called only under -tags=aliascheck.
func checkSum(addr BlockAddr, b StoredBlock, want uint64, culprit string) {
	if got := contentSum(b); got != want {
		panic(fmt.Sprintf(
			"pdisk: aliascheck: block %v mutated after write (sum %#x, recorded %#x) — %s",
			addr, got, want, culprit))
	}
}

// contentSum is an order-dependent hash of a block's records and forecast
// keys (order-dependent so a reader that permutes records is caught too).
// A Rec16 block hashes identically to its widened twin, so the checksum
// is stable across representation conversions.
func contentSum(b StoredBlock) uint64 {
	const prime = 0x100000001b3
	sum := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		sum ^= v
		sum *= prime
	}
	if b.Recs16 != nil {
		for _, r := range b.Recs16 {
			mix(uint64(r.Key))
			mix(r.Val)
		}
	} else {
		for _, r := range b.Records {
			mix(uint64(r.Key))
			mix(r.Val)
			for i := 0; i < len(r.Ext); i++ {
				mix(uint64(r.Ext[i]))
			}
		}
	}
	mix(0x9e3779b97f4a7c15) // separator: records vs forecast
	for _, k := range b.Forecast {
		mix(uint64(k))
	}
	return sum
}

// Usage implements Store.
func (m *MemStore) Usage() Usage {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Usage{Blocks: m.blocks, Bytes: m.bytes}
}

// Close implements Store. Under -tags=aliascheck it gives every resident
// block a final mutation audit before the store is discarded. After Close
// every block op, Frontier and manifest call fails with ErrInvalid.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if aliasCheck {
		m.each(m.verifySum)
	}
	m.closed = true
	m.disks = nil
	m.spare = nil
	m.sums = nil
	m.arrays = nil
	m.manifest = nil
	m.blocks, m.bytes = 0, 0
	return nil
}

// SerialTransfers implements SerialStore: every MemStore operation is a
// slot access behind m.mu, so fanning transfers out to goroutines only
// adds scheduling cost.
func (m *MemStore) SerialTransfers() bool { return true }

// Frontier implements FrontierStore: the lowest index strictly above
// every resident block of disk. A fresh System built over a still-live
// MemStore (the chaos harness's in-memory "reopen" after a simulated
// kill) allocates past the surviving blocks instead of clobbering them.
func (m *MemStore) Frontier(disk int) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, errMemClosed
	}
	if uint(disk) >= uint(len(m.disks)) {
		return 0, nil
	}
	dir := m.disks[disk]
	for ci := len(dir) - 1; ci >= 0; ci-- {
		if c := dir[ci]; c != nil {
			for i := memChunkSlots - 1; i >= 0; i-- {
				if c.slots[i].present {
					return ci*memChunkSlots + i + 1, nil
				}
			}
		}
	}
	return 0, nil
}

// SaveManifest implements ManifestStore, holding the manifest in memory
// alongside the blocks.
func (m *MemStore) SaveManifest(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errMemClosed
	}
	m.manifest = append([]byte(nil), data...)
	return nil
}

// LoadManifest implements ManifestStore.
func (m *MemStore) LoadManifest() ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, false, errMemClosed
	}
	if m.manifest == nil {
		return nil, false, nil
	}
	return append([]byte(nil), m.manifest...), true, nil
}

// ClearManifest implements ManifestStore.
func (m *MemStore) ClearManifest() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errMemClosed
	}
	m.manifest = nil
	return nil
}

// Blocks implements BlockLister.
func (m *MemStore) Blocks() []BlockAddr {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]BlockAddr, 0, m.blocks)
	m.each(func(addr BlockAddr, _ StoredBlock) { out = append(out, addr) })
	return out
}
