// Package pdisk implements the Vitter–Shriver D-disk parallel I/O model that
// both SRM and DSM run on.
//
// Secondary storage is D independent disks holding blocks of B records. One
// I/O operation transfers at most one block to or from each of the D disks
// simultaneously; the System enforces this invariant and counts every
// operation, which is exactly the cost unit of the paper's Theorem 1 and
// Tables 1-4.
//
// The System itself is a thin coordinator: it owns statistics, address
// checking, block allocation and the I/O engine (engine.go) — the one
// scheduler of every parallel operation, sync or async (async.go), which
// applies retries, deadlines, hedges and the shared disk gate — and
// delegates all persistence to a pluggable Store backend — in-memory
// (MemStore, the default) for experiments, file-backed (FileStore) to
// sort real bytes on real storage, or fault-injecting (FaultStore) to
// drive error paths. The algorithms above are backend-blind: the same
// sort produces byte-identical output and identical Stats on every
// backend. An optional Ruemmler–Wilkes-style TimeModel converts
// operation counts into estimated wall-clock time.
package pdisk

import (
	"errors"
	"fmt"
	"sync"

	"srmsort/internal/record"
)

// BlockAddr names one block slot: a disk number in [0, D) and a
// nonnegative block index on that disk.
type BlockAddr struct {
	Disk  int
	Index int
}

func (a BlockAddr) String() string { return fmt.Sprintf("d%d:%d", a.Disk, a.Index) }

// StoredBlock is the unit of transfer: up to B records plus the implanted
// forecasting keys of the paper's Section 4 (D keys in a run's block 0, one
// key in every later block, none in blocks written without forecasting,
// e.g. by DSM).
//
// A block carries its records in exactly one of two representations —
// the two widths of the kernel (see record.KernelRecord). Recs16 is the
// 16-byte pointer-free layout of the fixed16 sort path; Records is the
// wide layout that carries varlen payloads. At most one of the two is
// non-nil. Stores are representation-blind: they persist whichever side
// is populated (FileStore's fixed16 codec round-trips Recs16 without
// widening; MemStore holds blocks as written), and readers pick their
// width back out with RecsOf.
type StoredBlock struct {
	Records  record.Block
	Recs16   []record.Rec16
	Forecast []record.Key
}

// NumRecords returns the record count of whichever representation the
// block carries.
func (b StoredBlock) NumRecords() int {
	if b.Recs16 != nil {
		return len(b.Recs16)
	}
	return len(b.Records)
}

// Wide returns the block's records in the wide layout, converting a
// pointer-free block on the fly. Legacy readers (tests, scrub paths)
// that only inspect content use it; kernel loops use RecsOf to stay at
// their own width.
func (b StoredBlock) Wide() record.Block {
	if b.Recs16 != nil {
		return record.ToWide(b.Recs16)
	}
	return b.Records
}

// RecsOf returns a block's records at the kernel width R. When the
// resident representation already is R the slice is returned as-is
// (zero-copy — the MemStore read path); on a mismatch it converts, so a
// reader is always correct even over a store holding the other width
// (e.g. a wide-kernel read of a block a fixed16 FileStore decoded into
// Recs16). Narrowing drops Ext, which is legal only on fixed16 data —
// the codec agreement check at sort ingest guarantees that.
func RecsOf[R record.KernelRecord](b StoredBlock) []R {
	switch any([]R(nil)).(type) {
	case []record.Rec16:
		if b.Recs16 != nil {
			return any(b.Recs16).([]R)
		}
		return any(record.ToRec16(b.Records)).([]R)
	case []record.Record:
		if b.Recs16 != nil {
			return any(record.ToWide(b.Recs16)).([]R)
		}
		return any([]record.Record(b.Records)).([]R)
	default:
		panic("pdisk: RecsOf at an unknown kernel width")
	}
}

// MakeStored builds a StoredBlock holding rs in its own representation
// (no conversion, no copy) with the given forecast keys.
func MakeStored[R record.KernelRecord](rs []R, forecast []record.Key) StoredBlock {
	b := StoredBlock{Forecast: forecast}
	switch v := any(rs).(type) {
	case []record.Rec16:
		b.Recs16 = v
	case []record.Record:
		b.Records = record.Block(v)
	default:
		panic("pdisk: MakeStored at an unknown kernel width")
	}
	return b
}

// System is a D-disk parallel I/O system with block size B records.
//
// A System is safe for concurrent use: sync operations are serialised by
// an internal mutex (two merges sharing the disks interleave their
// operations, as they would on real hardware), while within one operation
// the D per-disk transfers run concurrently on the engine's executors
// unless the store is serial — the disks really are independent.
type System struct {
	mu     sync.Mutex
	d, b   int
	store  Store
	eng    *engine
	health HealthReporter // a hand-built deadline layer's, when the System has no policy
	retain bool           // Close stops the executors but leaves the store open
	model  *TimeModel
	stats  Stats
	next   []int // per-disk bump allocator for fresh block indexes

	// asyncMu guards the async ops issued and not yet finished (see
	// async.go), and closed, which Close sets before it finishes them.
	asyncMu     sync.Mutex
	outstanding *future
	closed      bool

	closeOnce sync.Once
	closeErr  error
}

// Config describes a System.
type Config struct {
	D int // number of disks, >= 1
	B int // block size in records, >= 1
	// Store backs the disks; nil means a fresh MemStore.
	Store Store
	// Model, if non-nil, accumulates estimated I/O time in Stats.SimTime.
	Model *TimeModel
	// RetainStore leaves the store open when the System closes: Close
	// still finishes the async ops and stops the executors but does not
	// close the backend. Set when the store's lifetime is owned by the
	// caller — e.g. a sort resuming over a store that must survive the
	// System.
	RetainStore bool
	// Gate, if non-nil, throttles every block transfer through a shared
	// per-disk semaphore, so several Systems (concurrent sort jobs)
	// fair-share the bandwidth of one set of physical disks. The gate
	// must cover at least D disks.
	Gate *DiskGate
	// Retry, if non-nil, re-attempts failed transfers — and the manifest
	// and frontier calls the System forwards — under the policy: backoff,
	// per-transfer attempt budget, per-disk error budget. Its counters
	// appear in Stats.
	Retry *RetryPolicy
	// Deadline, if non-nil, bounds every block transfer, hedges
	// straggling reads and tracks per-disk latency into Stats.Health. A
	// bounded operation runs on the engine's executors — one handoff and
	// one timer per operation on a serial store. Timeouts are retryable
	// and charge Retry's per-disk budget.
	Deadline *DeadlinePolicy
}

// NewSystem constructs a System, validating the configuration.
func NewSystem(cfg Config) (*System, error) {
	if cfg.D < 1 {
		return nil, fmt.Errorf("pdisk: D = %d, need >= 1", cfg.D)
	}
	if cfg.B < 1 {
		return nil, fmt.Errorf("pdisk: B = %d, need >= 1", cfg.B)
	}
	st := cfg.Store
	if st == nil {
		st = NewMemStore()
	}
	if cfg.Gate != nil && cfg.Gate.D() < cfg.D {
		return nil, fmt.Errorf("pdisk: gate covers %d disks, system has D=%d", cfg.Gate.D(), cfg.D)
	}
	eng := newEngine(st, cfg.Gate, cfg.Retry, cfg.Deadline)
	// Park at most the executors two merges keep busy after Step 1 — a
	// read op and a write stripe each — so Step 1's burst of R initial
	// reads does not leave R of them parked until Close, and a second
	// concurrent merge (Workers 2) still finds one parked per leg.
	eng.maxIdle = 4 * cfg.D
	next := make([]int, cfg.D)
	// A reopened backend may already hold blocks; allocate past them. A
	// failed Frontier aborts construction: allocating blind over
	// recovered state could clobber surviving blocks.
	for i := range next {
		frontier, err := eng.Frontier(i)
		if err != nil {
			return nil, fmt.Errorf("pdisk: frontier of disk %d: %w", i, err)
		}
		next[i] = frontier
	}
	var health HealthReporter
	if hr, ok := st.(HealthReporter); ok && cfg.Deadline == nil {
		health = hr
	}
	return &System{
		d:      cfg.D,
		b:      cfg.B,
		store:  st,
		eng:    eng,
		health: health,
		retain: cfg.RetainStore,
		model:  cfg.Model,
		stats: Stats{
			PerDiskReads:  make([]int64, cfg.D),
			PerDiskWrites: make([]int64, cfg.D),
		},
		next: next,
	}, nil
}

// D returns the number of disks.
func (s *System) D() int { return s.d }

// B returns the block size in records.
func (s *System) B() int { return s.b }

// Stats returns a snapshot of the accumulated I/O statistics, with the
// retry policy's counters and the deadline policy's health ledger. Health
// is nil without a Deadline policy — unless the store is a hand-built
// stack reporting one (HealthReporter) — so deadline-free Stats stay
// comparable.
func (s *System) Stats() Stats {
	s.mu.Lock()
	out := s.stats
	out.PerDiskReads = append([]int64(nil), s.stats.PerDiskReads...)
	out.PerDiskWrites = append([]int64(nil), s.stats.PerDiskWrites...)
	out.Retries = s.eng.retries.Load()
	out.RetryGiveUps = s.eng.giveups.Load()
	s.mu.Unlock()
	switch {
	case s.eng.tracker != nil:
		h := s.eng.tracker.Snapshot()
		out.Health = &h
	case s.health != nil:
		out.Health = s.health.HealthSnapshot()
	}
	return out
}

// ResetStats zeroes the counters, retry counters included (the
// allocator, the store, the per-disk error budget and the health ledger
// are untouched).
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{
		PerDiskReads:  make([]int64, s.d),
		PerDiskWrites: make([]int64, s.d),
	}
	s.eng.attempts.Store(0)
	s.eng.retries.Store(0)
	s.eng.giveups.Store(0)
}

// StoreUsage returns the backend's current capacity accounting.
func (s *System) StoreUsage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Usage()
}

// Alloc returns a fresh, never-before-used block index on disk.
func (s *System) Alloc(disk int) BlockAddr {
	if disk < 0 || disk >= s.d {
		panic(fmt.Sprintf("pdisk: Alloc on disk %d of %d", disk, s.d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.next[disk]
	s.next[disk]++
	return BlockAddr{Disk: disk, Index: idx}
}

// BlockWrite pairs a destination address with the block to store there.
type BlockWrite struct {
	Addr  BlockAddr
	Block StoredBlock
}

// ErrDiskConflict is returned when one parallel operation addresses the same
// disk twice — the fundamental rule of the D-disk model.
var ErrDiskConflict = errors.New("pdisk: more than one block on the same disk in a single I/O operation")

func (s *System) checkAddrs(addrs []BlockAddr) error {
	return s.checkOp(len(addrs), func(i int) BlockAddr { return addrs[i] })
}

// checkWrites validates a write operation's addresses and block sizes.
func (s *System) checkWrites(writes []BlockWrite) error {
	if err := s.checkOp(len(writes), func(i int) BlockAddr { return writes[i].Addr }); err != nil {
		return err
	}
	for _, w := range writes {
		if n := w.Block.NumRecords(); n > s.b {
			return fmt.Errorf("pdisk: block of %d records exceeds B=%d at %v",
				n, s.b, w.Addr)
		}
	}
	return nil
}

// checkOp validates the n addresses of one parallel operation without
// allocating: disks below 64 are tracked in a bit set, any others
// compared pairwise.
func (s *System) checkOp(n int, addr func(int) BlockAddr) error {
	if n == 0 {
		return errors.New("pdisk: empty I/O operation")
	}
	if n > s.d {
		return fmt.Errorf("pdisk: %d blocks in one operation with D=%d disks", n, s.d)
	}
	var seen uint64
	for i := 0; i < n; i++ {
		a := addr(i)
		if a.Disk < 0 || a.Disk >= s.d {
			return fmt.Errorf("pdisk: address %v out of range (D=%d)", a, s.d)
		}
		if a.Index < 0 {
			return fmt.Errorf("pdisk: negative block index %v", a)
		}
		dup := false
		if a.Disk < 64 {
			dup = seen&(1<<a.Disk) != 0
			seen |= 1 << a.Disk
		} else {
			for k := 0; k < i; k++ {
				dup = dup || addr(k).Disk == a.Disk
			}
		}
		if dup {
			return fmt.Errorf("%w (disk %d)", ErrDiskConflict, a.Disk)
		}
	}
	return nil
}

// readOp validates a parallel read and fills an engine op for it.
func (s *System) readOp(addrs []BlockAddr) (*op, error) {
	if err := s.checkAddrs(addrs); err != nil {
		return nil, err
	}
	o := s.eng.getOp(opRead, len(addrs))
	for i, a := range addrs {
		o.set(i, a, StoredBlock{})
	}
	return o, nil
}

// writeOp validates a parallel write and fills an engine op for it with
// the blocks themselves: a write hands its blocks to the System, and the
// caller must not modify them afterwards (see Store.WriteBlock).
func (s *System) writeOp(writes []BlockWrite) (*op, error) {
	if err := s.checkWrites(writes); err != nil {
		return nil, err
	}
	o := s.eng.getOp(opWrite, len(writes))
	for i, w := range writes {
		o.set(i, w.Addr, w.Block)
	}
	return o, nil
}

// endLocked settles a finished op, whose first failed transfer is failed
// (-1 for none), and returns it to the engine. A failure is wrapped with
// the failing transfer's attribution and counts nothing; a successful
// read or write counts as one parallel operation, and a read returns its
// blocks in request order. The caller holds s.mu.
func (s *System) endLocked(o *op, failed int) ([]StoredBlock, error) {
	defer s.eng.putOp(o)
	if failed >= 0 {
		t := &o.xs[failed]
		return nil, &IOError{Op: opNames[t.kind], Addr: t.addr, Err: t.err}
	}
	var out []StoredBlock
	switch o.kind {
	case opFree:
		return nil, nil
	case opRead:
		out = make([]StoredBlock, len(o.xs))
		for i := range o.xs {
			out[i] = o.xs[i].blk
			s.stats.PerDiskReads[o.xs[i].addr.Disk]++
		}
		s.stats.ReadOps++
		s.stats.BlocksRead += int64(len(o.xs))
	case opWrite:
		for i := range o.xs {
			s.stats.PerDiskWrites[o.xs[i].addr.Disk]++
		}
		s.stats.WriteOps++
		s.stats.BlocksWritten += int64(len(o.xs))
	}
	if s.model != nil {
		s.stats.SimTime += s.model.OpSeconds(s.b)
	}
	return out, nil
}

// ReadBlocks performs one parallel read operation fetching every addressed
// block (at most one per disk) and returns them in request order.
func (s *System) ReadBlocks(addrs []BlockAddr) ([]StoredBlock, error) {
	o, err := s.readOp(addrs)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endLocked(o, s.eng.run(o))
}

// WriteBlocks performs one parallel write operation storing every block (at
// most one per disk). Records in each block must be at most B and sorted.
// The blocks pass to the System: the caller must not modify them once
// the call is made.
func (s *System) WriteBlocks(writes []BlockWrite) error {
	o, err := s.writeOp(writes)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err = s.endLocked(o, s.eng.run(o))
	return err
}

// FreeBlocks releases the blocks' storage — any number, several per disk —
// in one operation of the engine, without performing (or counting) any
// I/O: space reclamation is bookkeeping, not data transfer. Every block
// is freed even if one fails; the first failure in request order is
// returned.
func (s *System) FreeBlocks(addrs ...BlockAddr) error {
	if len(addrs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.eng.getOp(opFree, len(addrs))
	for i, a := range addrs {
		o.set(i, a, StoredBlock{})
	}
	_, err := s.endLocked(o, s.eng.run(o))
	return err
}

// SaveManifest flushes the store (FileStore fsyncs) and then persists
// the checkpoint manifest through it, retried under the System's policy
// (never bounded by its deadline). The flush comes first, so a manifest
// never names blocks the media does not hold yet.
func (s *System) SaveManifest(data []byte) error {
	if err := s.eng.Sync(); err != nil {
		return err
	}
	return s.eng.SaveManifest(data)
}

// LoadManifest fetches the checkpoint manifest and whether one exists;
// (nil, false, nil) when the store cannot hold one.
func (s *System) LoadManifest() ([]byte, bool, error) { return s.eng.LoadManifest() }

// ClearManifest removes the checkpoint manifest, if the store holds one.
func (s *System) ClearManifest() error { return s.eng.ClearManifest() }

// Frontier reports the store's allocation frontier on disk (0 for a store
// that cannot reopen state), retried like the manifest calls.
func (s *System) Frontier(disk int) (int, error) { return s.eng.Frontier(disk) }

// Blocks lists the store's resident blocks, in no particular order (none
// for a store that cannot enumerate them).
func (s *System) Blocks() []BlockAddr { return s.eng.Blocks() }

// Close finishes every async operation issued and not yet waited — so
// their Waits return normally, their stats are counted, and a stuck
// transfer in one is abandoned at its deadline — stops the engine's
// executors, and then closes the underlying store (unless
// Config.RetainStore left its lifetime with the caller). Close is
// idempotent and safe to call concurrently with async issues and Waits:
// later issues fail with ErrClosed at Wait.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		s.asyncMu.Lock()
		s.closed = true
		f := s.outstanding
		s.outstanding = nil
		s.asyncMu.Unlock()
		// The list is Close's now: resolve leaves the links alone once
		// closed is set.
		for ; f != nil; f = f.next {
			f.once.Do(f.resolve)
		}
		s.eng.stop()
		if !s.retain {
			s.closeErr = s.store.Close()
		}
	})
	return s.closeErr
}
