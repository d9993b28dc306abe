// Asynchronous I/O: the overlapped counterpart of ReadBlocks/WriteBlocks.
//
// The paper's Section 5 describes SRM as two concurrent control flows —
// I/O scheduling and internal merge processing. The synchronous System
// methods serialise them: every operation blocks the caller for the full
// device latency. The async methods below split an operation into an
// *issue* (non-blocking, returns a completion future) and a *wait*
// (collects the transferred blocks and accounts the operation), so a merge
// loop can keep consuming records while the next forecast-directed batch
// is in flight.
//
// Mechanics: an async operation is an op of the System's one I/O engine
// (engine.go), split where a sync operation runs straight through. The
// issue validates it and starts it — its legs go to the engine's
// executors, one leg per op on a serial store and one per transfer
// otherwise, never inline, and a bounded op arms its timer. Wait
// finishes it: collects the results, applies the retry rule, handles the
// deadline and hedge ticks, and accounts it. Retries, deadlines, hedges,
// the disk gate and health sampling therefore apply exactly as they do to
// a sync operation, with the same code.
//
// Lifecycle: until a bounded operation is waited, its timer handles its
// deadline and hedge ticks itself, so a stuck transfer gives up its gate
// slot at its deadline and a straggling read is hedged while the caller
// works on; a failed attempt is retried once the operation is waited.
// Close finishes every operation issued and not yet waited before it
// closes the store; issues after Close fail with ErrClosed at Wait.
//
// Ordering: operations in flight together are unordered, even on one
// disk. A caller must wait for a block's write before it issues a read
// of that block — the run writers wait for their last stripe in Finish,
// before they return the run. Statistics are accounted when a future is
// waited, and only for successful operations — identical totals to the
// synchronous path, which also counts only completed operations.
//
// Equivalence: an async operation moves exactly the blocks the synchronous
// call would, performs the same per-disk transfers, and counts the same
// single parallel operation in Stats; any interleaving yields the same
// Stats totals because the counters are order-independent sums.
package pdisk

import (
	"errors"
	"sync"
)

// ErrClosed is returned by async operations issued after Close.
var ErrClosed = errors.New("pdisk: async I/O after Close")

// future is one issued async operation. Wait — or Close, for one nobody
// waited on — finishes it once.
type future struct {
	sys  *System
	o    *op // the started op; nil once finished, or if the issue failed
	once sync.Once
	out  []StoredBlock
	err  error
	// The System's list of unfinished futures, guarded by sys.asyncMu.
	prev, next *future
}

// startAsync starts o as f's async op, or records why it could not: err
// from validation, or ErrClosed.
func (s *System) startAsync(f *future, o *op, err error) {
	f.sys = s
	if err != nil {
		f.err = err
		return
	}
	s.asyncMu.Lock()
	defer s.asyncMu.Unlock()
	if s.closed {
		f.err = ErrClosed
		return
	}
	s.eng.start(o, true)
	f.o = o
	f.next = s.outstanding
	if f.next != nil {
		f.next.prev = f
	}
	s.outstanding = f
}

// resolve, run once per future, finishes the op, accounts it, and takes
// it off the System's list — unless Close took the list first and is
// finishing it.
func (f *future) resolve() {
	if f.o == nil {
		return // validation or lifecycle error, already set
	}
	s := f.sys
	failed := s.eng.finish(f.o)
	s.mu.Lock()
	f.out, f.err = s.endLocked(f.o, failed)
	s.mu.Unlock()
	f.o = nil
	s.asyncMu.Lock()
	defer s.asyncMu.Unlock()
	if s.closed {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.outstanding = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	}
	f.prev, f.next = nil, nil
}

// ReadFuture is the completion handle of one asynchronous parallel read.
type ReadFuture struct{ future }

// ReadBlocksAsync issues one parallel read operation (same addressing rules
// as ReadBlocks) and returns immediately with a future; call Wait to
// collect the blocks. The caller may reuse addrs at once. Validation
// errors are deferred to Wait so the call site stays uniform.
func (s *System) ReadBlocksAsync(addrs []BlockAddr) *ReadFuture {
	f := &ReadFuture{}
	o, err := s.readOp(addrs)
	s.startAsync(&f.future, o, err)
	return f
}

// Wait blocks until every transfer of the operation has finished and
// returns the blocks in request order. On success it accounts the
// operation in Stats exactly as a synchronous ReadBlocks would; on failure
// it returns the first error in request order and counts nothing. Wait is
// idempotent: the first Wait, or Close, accounts the operation once.
func (f *ReadFuture) Wait() ([]StoredBlock, error) {
	f.once.Do(f.resolve)
	return f.out, f.err
}

// WriteFuture is the completion handle of one asynchronous parallel write.
type WriteFuture struct{ future }

// WriteBlocksAsync issues one parallel write operation (same rules as
// WriteBlocks) and returns immediately with a future. The blocks pass to
// the System at issue, as they do for WriteBlocks: the caller must not
// modify them after the call, even before Wait. The write-behind M_W
// double buffer relies on this — each stripe's writer cuts fresh blocks
// and drops them once issued.
func (s *System) WriteBlocksAsync(writes []BlockWrite) *WriteFuture {
	f := &WriteFuture{}
	o, err := s.writeOp(writes)
	s.startAsync(&f.future, o, err)
	return f
}

// Wait blocks until the operation has fully reached the store. On success
// it accounts the operation in Stats; on failure it returns the first
// error in request order and counts nothing. Idempotent.
func (f *WriteFuture) Wait() error {
	f.once.Do(f.resolve)
	return f.err
}
