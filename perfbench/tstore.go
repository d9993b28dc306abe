package main

import (
	"fmt"
	"sync"
	"time"

	"srmsort/internal/pdisk"
)

// Block-operation kinds a timedStore counts.
const (
	opRead = iota
	opWrite
	opFree
	numOps
)

// storeTally is what a timedStore measured: calls and busy time per
// operation kind, each call's interval when kept, and the peak of the
// inner store's byte usage when tracked.
type storeTally struct {
	calls [numOps]int64
	busy  [numOps]time.Duration
	log   []interval // every call, when the store keeps intervals
	peak  int64
	// firstRead is when the first read began; sawRead says there was one.
	firstRead time.Duration
	sawRead   bool
}

func (t storeTally) totalCalls() int64 { return t.calls[opRead] + t.calls[opWrite] + t.calls[opFree] }

func (t storeTally) totalBusy() time.Duration {
	return t.busy[opRead] + t.busy[opWrite] + t.busy[opFree]
}

// timedStore is a pdisk.Store that times every block operation it passes
// to the store beneath it. It forwards each optional capability the pdisk
// and srmsort layers probe for (SerialStore, FrontierStore, ManifestStore,
// BlockLister, Sync, retry counts and health), answering like the
// library's own wrappers when the inner store lacks one — so a System
// built over it takes the same transfer path and reports the same Stats
// as one built over the bare store.
type timedStore struct {
	inner pdisk.Store
	epoch time.Time
	keep  bool // record every call's interval
	usage bool // track peak Usage().Bytes after every write

	mu sync.Mutex
	t  storeTally
}

func newTimedStore(inner pdisk.Store, epoch time.Time, keep, usage bool) *timedStore {
	return &timedStore{inner: inner, epoch: epoch, keep: keep, usage: usage}
}

func (s *timedStore) note(kind int, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.t.calls[kind]++
	s.t.busy[kind] += end.Sub(start)
	if kind == opRead && !s.t.sawRead {
		s.t.firstRead, s.t.sawRead = start.Sub(s.epoch), true
	}
	if s.keep {
		s.t.log = append(s.t.log, interval{start.Sub(s.epoch), end.Sub(s.epoch)})
	}
	s.mu.Unlock()
}

// tally returns what the store measured so far, its call log sorted by
// start.
func (s *timedStore) tally() storeTally {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.t
	t.log = append([]interval(nil), s.t.log...)
	sortIntervals(t.log)
	return t
}

// ReadBlock implements pdisk.Store.
func (s *timedStore) ReadBlock(addr pdisk.BlockAddr) (pdisk.StoredBlock, error) {
	start := time.Now()
	b, err := s.inner.ReadBlock(addr)
	s.note(opRead, start)
	return b, err
}

// WriteBlock implements pdisk.Store.
func (s *timedStore) WriteBlock(addr pdisk.BlockAddr, b pdisk.StoredBlock) error {
	start := time.Now()
	err := s.inner.WriteBlock(addr, b)
	s.note(opWrite, start)
	if s.usage && err == nil {
		bytes := s.inner.Usage().Bytes
		s.mu.Lock()
		s.t.peak = max(s.t.peak, bytes)
		s.mu.Unlock()
	}
	return err
}

// Free implements pdisk.Store.
func (s *timedStore) Free(addr pdisk.BlockAddr) error {
	start := time.Now()
	err := s.inner.Free(addr)
	s.note(opFree, start)
	return err
}

// Usage implements pdisk.Store.
func (s *timedStore) Usage() pdisk.Usage { return s.inner.Usage() }

// Close implements pdisk.Store.
func (s *timedStore) Close() error { return s.inner.Close() }

// SerialTransfers forwards the inner store's scheduling preference.
func (s *timedStore) SerialTransfers() bool {
	if ss, ok := s.inner.(pdisk.SerialStore); ok {
		return ss.SerialTransfers()
	}
	return false
}

// Frontier forwards allocation recovery.
func (s *timedStore) Frontier(disk int) (int, error) {
	if fs, ok := s.inner.(pdisk.FrontierStore); ok {
		return fs.Frontier(disk)
	}
	return 0, nil
}

// SaveManifest forwards checkpoint persistence.
func (s *timedStore) SaveManifest(data []byte) error {
	ms, ok := s.inner.(pdisk.ManifestStore)
	if !ok {
		return fmt.Errorf("%w: store has no manifest support", pdisk.ErrInvalid)
	}
	return ms.SaveManifest(data)
}

// LoadManifest forwards checkpoint recovery.
func (s *timedStore) LoadManifest() ([]byte, bool, error) {
	if ms, ok := s.inner.(pdisk.ManifestStore); ok {
		return ms.LoadManifest()
	}
	return nil, false, nil
}

// ClearManifest forwards checkpoint removal.
func (s *timedStore) ClearManifest() error {
	if ms, ok := s.inner.(pdisk.ManifestStore); ok {
		return ms.ClearManifest()
	}
	return nil
}

// Sync forwards a durability flush.
func (s *timedStore) Sync() error {
	if sy, ok := s.inner.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

// Blocks forwards block enumeration.
func (s *timedStore) Blocks() []pdisk.BlockAddr {
	if bl, ok := s.inner.(pdisk.BlockLister); ok {
		return bl.Blocks()
	}
	return nil
}

// Counts forwards a retry layer's accounting, so System.Stats folds it in.
func (s *timedStore) Counts() pdisk.RetryCounts {
	if rc, ok := s.inner.(interface{ Counts() pdisk.RetryCounts }); ok {
		return rc.Counts()
	}
	return pdisk.RetryCounts{}
}

// HealthSnapshot forwards a deadline layer's health ledger.
func (s *timedStore) HealthSnapshot() *pdisk.HealthStats {
	if hr, ok := s.inner.(pdisk.HealthReporter); ok {
		return hr.HealthSnapshot()
	}
	return nil
}
