package pdisk

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"srmsort/internal/record"
)

// Block recycling. A block's record array leaves the store at exactly one
// point: MemStore.Free of the resident slot that holds it. Free hands the
// array to a package-level pool keyed by the record width and the
// array's capacity, and NewBlock draws the arrays every writer forms its
// blocks in (runio.Writer, the input loader, PSV's transposition) from
// the pool of its width and B. So a sort whose merges free each input
// block once drained writes its output into the arrays it has just
// read, and its heap holds its data plus M instead of every block it
// ever wrote waiting for the collector.
//
// The pool is a sync.Pool per key, so whatever it holds is released at
// the next collections like any sync.Pool's contents, and it works
// beneath every store wrapper (FaultStore, sortd's and perfbench's
// wrappers) without a method they would have to forward: the wrappers
// call MemStore.Free, and the writers above them call NewBlock.
//
// Safety rests on three rules (DESIGN §8.3):
//   - Only MemStore.Free of a resident slot recycles, so an array is
//     pooled only after its block was stored and its address freed. A
//     reader holds a block only until its address is freed (Store's
//     ReadBlock contract); a writer never touches a block after its
//     write is issued.
//   - A block a stuck write leg still holds is not resident (the leg has
//     not reached the MemStore), so no Free can pool it; the engine's
//     join makes every later attempt of that write wait for the leg
//     (DESIGN §14.2), and a free of the address can only follow a read
//     of it, which follows the write.
//   - Only a block whose length is its capacity is pooled, so a block
//     that is a sub-slice of a larger array pools no records beyond its
//     own. The pool hands out arrays of capacity B; a run's partial last
//     block is not recycled.
//
// Under -tags=aliascheck MemStore poisons a freed block's records before
// pooling it, so a stale reader sees wrong bytes, and refuses to store an
// array already resident at another address.

// poolKey names one pool: the record width (wide = record.Record, else
// record.Rec16) and the capacity of the arrays it holds.
type poolKey struct {
	wide bool
	cap  int
}

// poolEntry is the pool of one key. It holds pointers to the first
// element of arrays of exactly the key's capacity, so an array goes in
// and out without an allocation.
type poolEntry struct {
	key  poolKey
	pool sync.Pool
}

var (
	// blockPools maps a poolKey to its *poolEntry.
	blockPools sync.Map
	// lastPool caches the entry each width (0 fixed16, 1 wide) used
	// last: a process sorts at one B at a time, mostly, so the pool of a
	// block freed or formed is found with one atomic load.
	lastPool [2]atomic.Pointer[poolEntry]
)

// blockPool returns the pool of key k, creating it on first use.
func blockPool(k poolKey) *sync.Pool {
	w := 0
	if k.wide {
		w = 1
	}
	if e := lastPool[w].Load(); e != nil && e.key == k {
		return &e.pool
	}
	v, ok := blockPools.Load(k)
	if !ok {
		v, _ = blockPools.LoadOrStore(k, &poolEntry{key: k})
	}
	e := v.(*poolEntry)
	lastPool[w].Store(e)
	return &e.pool
}

// NewBlock returns an empty record array of capacity b at width R for a
// block bound for the store: a recycled one when the pool of R and b
// holds one (its records are stale and must be overwritten before use),
// else a fresh one.
func NewBlock[R record.KernelRecord](b int) []R {
	_, wide := any([]R(nil)).([]record.Record)
	if p, ok := blockPool(poolKey{wide, b}).Get().(*R); ok {
		return unsafe.Slice(p, b)[:0]
	}
	return make([]R, 0, b)
}

// recycle pools the record array of b, a block MemStore.Free has just
// taken out of its slot. Wide arrays are cleared first, so the pool pins
// no record's payload. Under -tags=aliascheck every record is poisoned,
// so a reader that holds the block past its free reads wrong bytes.
func recycle(b StoredBlock) {
	switch rs, ws := b.Recs16, b.Records; {
	case len(rs) > 0 && len(rs) == cap(rs):
		if aliasCheck {
			for i := range rs {
				rs[i] = record.Rec16{Key: poisonKey, Val: poisonKey}
			}
		}
		blockPool(poolKey{false, len(rs)}).Put(&rs[0])
	case len(ws) > 0 && len(ws) == cap(ws):
		clear(ws)
		if aliasCheck {
			for i := range ws {
				ws[i] = record.Record{Key: poisonKey, Val: poisonKey}
			}
		}
		blockPool(poolKey{true, len(ws)}).Put(&ws[0])
	}
}

// poisonKey is the key and payload aliascheck writes over a freed
// block's records: no test input carries it.
const poisonKey = 0x5a5a5a5a5a5a5a5a

// arrayOf returns the address of b's record array, nil when it has none:
// the identity aliascheck's one-array-one-address rule tracks.
func arrayOf(b StoredBlock) unsafe.Pointer {
	switch {
	case cap(b.Recs16) > 0:
		return unsafe.Pointer(unsafe.SliceData(b.Recs16))
	case cap(b.Records) > 0:
		return unsafe.Pointer(unsafe.SliceData(b.Records))
	}
	return nil
}
