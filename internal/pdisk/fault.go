package pdisk

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrInjected is the base error of all FaultStore failures; test code can
// errors.Is against it. Injected faults are transient by classification —
// Retryable returns true for them — except torn writes, which wrap a
// TerminalError (they model the process dying mid-write, not a transfer
// worth re-issuing).
var ErrInjected = errors.New("pdisk: injected fault")

// FaultConfig schedules a FaultStore's injections. Two mechanisms
// compose, both deterministic:
//
//   - Counted faults: the FailReadAt-th read (1-based; likewise writes,
//     frees, frontier probes and manifest operations) fails and every
//     later one succeeds again, mimicking a transient device error at an
//     exact point in the schedule. TornWriteAt instead *tears* the first
//     write at or after the n-th (and every one after it, until
//     Configure re-arms — the modelled process is dead): on a backend
//     that supports it (FileStore) the block's
//     checksummed meta slot commits but only half the payload does — the
//     state a crash mid-write leaves on media — and the operation returns
//     a terminal error, as the process issuing it would never observe a
//     completion.
//   - Seeded faults and latency: an operation's fate is a pure function
//     of (Seed, kind, address, attempt), where attempt counts that
//     address's operations of that kind so far — independent of how
//     operations on different addresses interleave across goroutines,
//     as a System's per-disk transfers do. ReadFailProb (etc.) is the
//     per-operation failure probability; TornWriteProb the per-write
//     tearing probability; MaxLatency > 0 adds a uniform [0, MaxLatency)
//     delay to every operation, modelling a slow device. ParetoScale > 0
//     adds a heavy-tailed Pareto delay — the straggler model: most
//     operations are barely delayed, a seeded few are delayed by orders
//     of magnitude. StuckReadAt/StuckWriteAt park exactly one counted
//     operation for StuckDelay — an op that, from the sort's point of
//     view, never completes until a deadline layer above abandons it.
//
// All delays are performed by the injected Sleep (nil = time.Sleep),
// like RetryPolicy.Sleep, so latency tests run deterministically fast.
type FaultConfig struct {
	Seed int64

	FailReadAt     int64 // 1-based read count to fail; 0 = never
	FailWriteAt    int64
	FailFreeAt     int64
	FailFrontierAt int64 // allocation-recovery probes (NewSystem's seeding path)
	FailManifestAt int64 // checkpoint manifest save/load/clear operations

	TornWriteAt int64 // 1-based write count to tear; 0 = never

	ReadFailProb     float64
	WriteFailProb    float64
	FreeFailProb     float64
	FrontierFailProb float64
	ManifestFailProb float64

	TornWriteProb float64

	MaxLatency time.Duration

	// ParetoScale > 0 adds a Pareto-distributed delay x_m·u^(−1/α) per
	// operation (x_m = ParetoScale, α = ParetoAlpha, u uniform from the
	// operation's seeded draws), capped at ParetoCap — deterministic
	// heavy-tail latency for straggler testing.
	ParetoScale time.Duration
	// ParetoAlpha is the tail exponent; 0 means 1.2 (heavy: infinite
	// variance, finite mean).
	ParetoAlpha float64
	// ParetoCap bounds a single Pareto delay; 0 means 100·ParetoScale.
	ParetoCap time.Duration

	// StuckReadAt parks the n-th read (1-based) for StuckDelay before it
	// proceeds — a transfer stuck long past any reasonable deadline.
	// Later reads are unaffected. StuckWriteAt likewise for writes.
	StuckReadAt  int64
	StuckWriteAt int64
	// StuckDelay is how long a stuck operation parks; 0 means 1s.
	StuckDelay time.Duration

	// Sleep performs every injected delay; nil means time.Sleep. Tests
	// inject a recorder so latency schedules are asserted without real
	// waiting (the same seam as RetryPolicy.Sleep).
	Sleep func(time.Duration)
}

// TornWriter is the backend hook FaultStore tears writes through:
// FileStore implements it by committing the checksummed meta slot with
// only half the record payload. Backends without it (MemStore keeps no
// checksum that could expose the damage) drop the torn write entirely —
// the block never reaches the store, the other on-media shape of a crash
// mid-write.
type TornWriter interface {
	WriteBlockTorn(addr BlockAddr, b StoredBlock) error
}

// FaultStore wraps a Store and injects failures and latency on a
// deterministic schedule, so tests can drive the error paths of every
// algorithm on every backend: a sort must surface a failed transfer as an
// error (never a panic, never silent corruption). It forwards the
// optional Frontier/Manifest/Blocks capabilities of the wrapped store —
// with faults of their own on the frontier and manifest paths — so a
// fault-injected stack loses none of the backend's recovery features.
type FaultStore struct {
	inner Store

	mu       sync.Mutex
	cfg      FaultConfig
	counts   [opKinds]int64
	attempts map[opKey]uint64
}

// opKey names one address's operations of one kind.
type opKey struct {
	kind int
	addr BlockAddr
}

// operation kinds, indexing FaultStore counters.
const (
	opRead = iota
	opWrite
	opFree
	opFrontier
	opManifest
	opKinds
)

var opNames = [opKinds]string{"read", "write", "free", "frontier", "manifest"}

// NewFaultStore wraps inner under the given schedule; Configure can
// re-arm it later (counters keep running across Configure calls, so a
// test can let setup traffic through and then arm a fault).
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	return &FaultStore{inner: inner, cfg: cfg, attempts: make(map[opKey]uint64)}
}

// Configure replaces the fault schedule. Operation counters and
// per-address attempts are preserved.
func (f *FaultStore) Configure(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
}

// splitmix64 advances the stream state *s and returns its next value.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit returns the stream's next value as a uniform draw from [0, 1).
func unit(s *uint64) float64 { return float64(splitmix64(s)>>11) / (1 << 53) }

// OpCount returns how many operations of the named kind ("read",
// "write", "free", "frontier", "manifest") the store has seen — what a
// chaos schedule arms its counted faults against.
func (f *FaultStore) OpCount(name string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for kind, n := range opNames {
		if n == name {
			return f.counts[kind]
		}
	}
	return 0
}

// sleep performs an injected delay through the configured Sleep func
// (nil = time.Sleep). No lock is held while sleeping.
func (f *FaultStore) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	f.mu.Lock()
	fn := f.cfg.Sleep
	f.mu.Unlock()
	if fn == nil {
		time.Sleep(d)
	} else {
		fn(d)
	}
}

// decide counts one operation of the given kind and returns its fate: an
// injected delay and/or error, plus the uniform draw a write's tearing
// uses. Every draw comes from a stream seeded by (Seed, kind, addr,
// attempt), so the fate does not depend on the order in which concurrent
// operations reach the store.
func (f *FaultStore) decide(kind int, addr BlockAddr) (time.Duration, float64, error) {
	f.mu.Lock()
	f.counts[kind]++
	n := f.counts[kind]
	key := opKey{kind, addr}
	f.attempts[key]++
	s := uint64(f.cfg.Seed)
	for _, v := range [...]uint64{uint64(kind), uint64(addr.Disk), uint64(addr.Index), f.attempts[key]} {
		s ^= v
		s = splitmix64(&s)
	}
	failDraw, latencyDraw, paretoDraw, tornDraw := unit(&s), splitmix64(&s), unit(&s), unit(&s)
	failAt := [opKinds]int64{
		f.cfg.FailReadAt, f.cfg.FailWriteAt, f.cfg.FailFreeAt,
		f.cfg.FailFrontierAt, f.cfg.FailManifestAt,
	}[kind]
	prob := [opKinds]float64{
		f.cfg.ReadFailProb, f.cfg.WriteFailProb, f.cfg.FreeFailProb,
		f.cfg.FrontierFailProb, f.cfg.ManifestFailProb,
	}[kind]
	fail := failAt > 0 && n == failAt
	if prob > 0 && failDraw < prob {
		fail = true
	}
	var delay time.Duration
	if f.cfg.MaxLatency > 0 {
		delay = time.Duration(latencyDraw % uint64(f.cfg.MaxLatency))
	}
	if f.cfg.ParetoScale > 0 {
		alpha := f.cfg.ParetoAlpha
		if alpha <= 0 {
			alpha = 1.2
		}
		limit := f.cfg.ParetoCap
		if limit <= 0 {
			limit = 100 * f.cfg.ParetoScale
		}
		u := paretoDraw
		if u < 1e-12 {
			u = 1e-12
		}
		tail := time.Duration(float64(f.cfg.ParetoScale) * math.Pow(u, -1/alpha))
		if tail > limit || tail <= 0 {
			tail = limit
		}
		delay += tail
	}
	if (kind == opRead && f.cfg.StuckReadAt > 0 && n == f.cfg.StuckReadAt) ||
		(kind == opWrite && f.cfg.StuckWriteAt > 0 && n == f.cfg.StuckWriteAt) {
		stuck := f.cfg.StuckDelay
		if stuck <= 0 {
			stuck = time.Second
		}
		delay += stuck
	}
	f.mu.Unlock()
	if fail {
		return delay, tornDraw, fmt.Errorf("%w: %s #%d at %v", ErrInjected, opNames[kind], n, addr)
	}
	return delay, tornDraw, nil
}

// decideTorn reports whether a write decide has counted should tear,
// given the tearing draw decide returned for it. Called after decide,
// under its own lock acquisition.
func (f *FaultStore) decideTorn(draw float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.counts[opWrite]
	if f.cfg.TornWriteAt > 0 && n >= f.cfg.TornWriteAt {
		// At-or-after, not exact: the scheduled write may instead have
		// drawn a transient failure, and its retry must still die. Every
		// later write tears too — the modelled process is dead — until
		// Configure re-arms the schedule for the next incarnation.
		return true
	}
	return f.cfg.TornWriteProb > 0 && draw < f.cfg.TornWriteProb
}

// ReadBlock implements Store.
func (f *FaultStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	delay, _, err := f.decide(opRead, addr)
	f.sleep(delay)
	if err != nil {
		return StoredBlock{}, err
	}
	return f.inner.ReadBlock(addr)
}

// WriteBlock implements Store. A write scheduled to tear commits damaged
// (or no) on-media state through the backend's TornWriter hook and
// returns a terminal error: the modelled process died mid-write, so no
// retry can be the right response — recovery is the next open's problem.
func (f *FaultStore) WriteBlock(addr BlockAddr, b StoredBlock) error {
	delay, tornDraw, err := f.decide(opWrite, addr)
	f.sleep(delay)
	if err != nil {
		return err
	}
	if f.decideTorn(tornDraw) {
		if tw, ok := f.inner.(TornWriter); ok {
			if terr := tw.WriteBlockTorn(addr, b); terr != nil {
				return terr
			}
		}
		return &TerminalError{Err: fmt.Errorf("%w: torn write at %v", ErrInjected, addr)}
	}
	return f.inner.WriteBlock(addr, b)
}

// Free implements Store.
func (f *FaultStore) Free(addr BlockAddr) error {
	delay, _, err := f.decide(opFree, addr)
	f.sleep(delay)
	if err != nil {
		return err
	}
	return f.inner.Free(addr)
}

// Usage implements Store.
func (f *FaultStore) Usage() Usage { return f.inner.Usage() }

// Frontier forwards allocation recovery to the wrapped store when it
// supports it — with its own fault kind, so tests can fail the
// allocator-seeding path NewSystem depends on.
func (f *FaultStore) Frontier(disk int) (int, error) {
	delay, _, err := f.decide(opFrontier, BlockAddr{Disk: disk})
	f.sleep(delay)
	if err != nil {
		return 0, err
	}
	if fs, ok := f.inner.(FrontierStore); ok {
		return fs.Frontier(disk)
	}
	return 0, nil
}

// SaveManifest implements ManifestStore over a capable inner store;
// checkpoint traffic is fault-injectable like any other I/O.
func (f *FaultStore) SaveManifest(data []byte) error {
	delay, _, err := f.decide(opManifest, BlockAddr{})
	f.sleep(delay)
	if err != nil {
		return err
	}
	ms, ok := f.inner.(ManifestStore)
	if !ok {
		return fmt.Errorf("%w: store cannot persist a manifest", ErrInvalid)
	}
	return ms.SaveManifest(data)
}

// LoadManifest implements ManifestStore.
func (f *FaultStore) LoadManifest() ([]byte, bool, error) {
	delay, _, err := f.decide(opManifest, BlockAddr{})
	f.sleep(delay)
	if err != nil {
		return nil, false, err
	}
	ms, ok := f.inner.(ManifestStore)
	if !ok {
		return nil, false, nil
	}
	return ms.LoadManifest()
}

// ClearManifest implements ManifestStore.
func (f *FaultStore) ClearManifest() error {
	delay, _, err := f.decide(opManifest, BlockAddr{})
	f.sleep(delay)
	if err != nil {
		return err
	}
	ms, ok := f.inner.(ManifestStore)
	if !ok {
		return nil
	}
	return ms.ClearManifest()
}

// Sync forwards a durability flush to the wrapped store.
func (f *FaultStore) Sync() error {
	if s, ok := f.inner.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Blocks forwards BlockLister when the wrapped store supports it (fault
// free: it is a recovery-time audit walk, not algorithm I/O).
func (f *FaultStore) Blocks() []BlockAddr {
	if bl, ok := f.inner.(BlockLister); ok {
		return bl.Blocks()
	}
	return nil
}

// Close implements Store.
func (f *FaultStore) Close() error { return f.inner.Close() }
