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
// Mechanics:
//
//   - Each disk owns one worker goroutine fed by a bounded FIFO queue
//     (Config.AsyncQueueDepth requests deep, default DefaultAsyncQueueDepth).
//     The disks really are independent: a slow transfer on disk 0 never
//     delays disk 1.
//   - Issuing an operation enqueues one request per addressed disk. When a
//     disk's queue is full the issue call blocks — bounded in-flight work
//     is the backpressure that keeps memory use proportional to the queue
//     depth, exactly like a real controller's tag queue.
//   - Workers are started lazily on the first async call and shut down by
//     Close (before the store closes), so a System that never goes async
//     costs nothing and one that did leaks no goroutines.
//
// Ordering guarantees: requests issued from one goroutine are FIFO per
// disk (single worker, FIFO channel), so a write followed by a read of the
// same address from the same issuer is safe. Operations touching different
// disks are unordered until waited. Statistics are accounted when a future
// is waited, and only for successful operations — identical totals to the
// synchronous path, which also counts only completed operations.
//
// Equivalence: an async operation moves exactly the blocks the synchronous
// call would, performs the same per-disk transfers, and counts the same
// single parallel operation in Stats; any interleaving of workers yields
// the same Stats totals because the counters are order-independent sums.
package pdisk

import (
	"errors"
	"sync"
)

// DefaultAsyncQueueDepth is the per-disk request queue depth used when
// Config.AsyncQueueDepth is zero.
const DefaultAsyncQueueDepth = 4

// ErrClosed is returned by async operations issued after Close.
var ErrClosed = errors.New("pdisk: async I/O after Close")

// diskReq is one per-disk transfer handed to a disk worker.
type diskReq struct {
	write bool
	addr  BlockAddr
	block StoredBlock // valid when write
	slot  int         // position in the issuing operation
	done  chan<- diskRes
}

// diskRes is a worker's reply; done channels are buffered to the operation
// size so workers never block on a caller that has not waited yet.
type diskRes struct {
	slot  int
	block StoredBlock
	err   error
}

// ensureWorkers lazily starts the per-disk workers and returns the queues.
func (s *System) ensureWorkers() ([]chan diskReq, error) {
	s.asyncMu.Lock()
	defer s.asyncMu.Unlock()
	if s.asyncClosed {
		return nil, ErrClosed
	}
	if s.queues == nil {
		depth := s.queueDepth
		if depth < 1 {
			depth = DefaultAsyncQueueDepth
		}
		s.queues = make([]chan diskReq, s.d)
		for i := range s.queues {
			q := make(chan diskReq, depth)
			s.queues[i] = q
			s.asyncWG.Add(1)
			go s.diskWorker(q)
		}
	}
	return s.queues, nil
}

// diskWorker serves one disk's queue until it is closed, running each
// request as a one-transfer op of the System's engine: the retry and
// deadline policies apply per transfer, and every transfer passes
// through the shared DiskGate (when one is configured), so the async
// pipelines of concurrent Systems fair-share the physical disk — a
// queue-depth of in-flight requests here still performs only a gate
// slot's worth of transfers at a time.
func (s *System) diskWorker(q chan diskReq) {
	defer s.asyncWG.Done()
	for req := range q {
		kind := opRead
		if req.write {
			kind = opWrite
		}
		blk, err := s.eng.do1(kind, req.addr, req.block)
		if err != nil {
			err = &IOError{Op: opNames[kind], Addr: req.addr, Err: err}
		}
		req.done <- diskRes{slot: req.slot, block: blk, err: err}
	}
}

// stopWorkers shuts the async layer down and waits for in-flight requests
// to finish. Idempotent; later async issues return ErrClosed. Taking
// issueMu exclusively first means no issuer still holds a queue reference
// mid-enqueue when the queues close — a concurrent Close can never turn
// an issue into a send on a closed channel. Issuers blocked on a full
// queue hold issueMu shared, so stopWorkers waits behind them while the
// (still running) workers drain the backlog.
func (s *System) stopWorkers() {
	s.issueMu.Lock()
	s.asyncMu.Lock()
	s.asyncClosed = true
	qs := s.queues
	s.queues = nil
	s.asyncMu.Unlock()
	s.issueMu.Unlock()
	for _, q := range qs {
		close(q)
	}
	s.asyncWG.Wait()
}

// ReadFuture is the completion handle of one asynchronous parallel read.
type ReadFuture struct {
	sys   *System
	addrs []BlockAddr
	done  chan diskRes
	once  sync.Once
	out   []StoredBlock
	err   error
}

// ReadBlocksAsync issues one parallel read operation (same addressing rules
// as ReadBlocks) and returns immediately with a future. The per-disk
// transfers run on the disk workers; call Wait to collect the blocks.
// Validation errors are deferred to Wait so the call site stays uniform.
func (s *System) ReadBlocksAsync(addrs []BlockAddr) *ReadFuture {
	f := &ReadFuture{sys: s, addrs: append([]BlockAddr(nil), addrs...)}
	if err := s.checkAddrs(f.addrs); err != nil {
		f.err = err
		return f
	}
	s.issueMu.RLock()
	defer s.issueMu.RUnlock()
	qs, err := s.ensureWorkers()
	if err != nil {
		f.err = err
		return f
	}
	f.done = make(chan diskRes, len(f.addrs))
	for i, a := range f.addrs {
		qs[a.Disk] <- diskReq{addr: a, slot: i, done: f.done}
	}
	return f
}

// Wait blocks until every per-disk transfer of the operation has finished
// and returns the blocks in request order. On success it accounts the
// operation in Stats exactly as a synchronous ReadBlocks would; on failure
// it returns the first error in request order and counts nothing. Wait is
// idempotent and must be called exactly once per future for the operation
// to be accounted.
func (f *ReadFuture) Wait() ([]StoredBlock, error) {
	f.once.Do(f.resolve)
	return f.out, f.err
}

func (f *ReadFuture) resolve() {
	if f.done == nil {
		return // validation or lifecycle error, already set
	}
	out := make([]StoredBlock, len(f.addrs))
	errs := make([]error, len(f.addrs))
	for range f.addrs {
		res := <-f.done
		out[res.slot] = res.block
		errs[res.slot] = res.err
	}
	for _, err := range errs {
		if err != nil {
			f.err = err
			return
		}
	}
	f.out = out
	f.sys.accountRead(f.addrs)
}

// WriteFuture is the completion handle of one asynchronous parallel write.
type WriteFuture struct {
	sys   *System
	addrs []BlockAddr
	done  chan diskRes
	once  sync.Once
	err   error
}

// WriteBlocksAsync issues one parallel write operation (same rules as
// WriteBlocks) and returns immediately with a future. The blocks are
// deep-copied at issue time, so the caller may reuse its buffers as soon
// as the call returns — the write-behind contract the M_W double buffer
// relies on.
func (s *System) WriteBlocksAsync(writes []BlockWrite) *WriteFuture {
	f := &WriteFuture{sys: s}
	if err := s.checkWrites(writes); err != nil {
		f.err = err
		return f
	}
	f.addrs = make([]BlockAddr, len(writes))
	for i, w := range writes {
		f.addrs[i] = w.Addr
	}
	s.issueMu.RLock()
	defer s.issueMu.RUnlock()
	qs, err := s.ensureWorkers()
	if err != nil {
		f.err = err
		return f
	}
	f.done = make(chan diskRes, len(writes))
	for i, w := range writes {
		qs[w.Addr.Disk] <- diskReq{
			write: true,
			addr:  w.Addr,
			block: w.Block.Clone(),
			slot:  i,
			done:  f.done,
		}
	}
	return f
}

// Wait blocks until the operation has fully reached the store. On success
// it accounts the operation in Stats; on failure it returns the first
// error in request order and counts nothing. Idempotent.
func (f *WriteFuture) Wait() error {
	f.once.Do(f.resolve)
	return f.err
}

func (f *WriteFuture) resolve() {
	if f.done == nil {
		return
	}
	errs := make([]error, len(f.addrs))
	for range f.addrs {
		res := <-f.done
		errs[res.slot] = res.err
	}
	for _, err := range errs {
		if err != nil {
			f.err = err
			return
		}
	}
	f.sys.accountWrite(f.addrs)
}

// accountRead counts one completed parallel read operation.
func (s *System) accountRead(addrs []BlockAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.accountReadLocked(addrs)
}

// accountWrite counts one completed parallel write operation.
func (s *System) accountWrite(addrs []BlockAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range addrs {
		s.stats.PerDiskWrites[a.Disk]++
	}
	s.accountWriteLocked(len(addrs))
}
