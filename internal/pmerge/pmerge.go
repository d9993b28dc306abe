// Package pmerge shards one R-way merge of sorted record sequences across
// P cores, cilksort-style: instead of splitting work by run (which PR 6's
// Workers pool already does for disjoint merges), it splits *one* merge by
// rank. A binary search over the key space finds, for each output cut
// t = s*total/P, the per-sequence positions whose prefix records are
// exactly the t globally smallest — so the P shards are independent merges
// into pre-computed disjoint output extents, and the concatenated result
// is byte-identical to the serial merge by construction.
//
// Duplicate keys make "the t smallest" ambiguous, so every cut is taken
// under an explicit total order (Order):
//
//   - KeyRun orders ties by (sequence index, position) — the order the
//     serial mergers produce (ltree breaks ties by player index,
//     positions within a run are already ordered).
//   - KeyVal orders ties by (val, sequence index, position) — the order
//     record.SortRecords produces. Records are exactly their (key, val)
//     bytes, so identical-(key,val) records are interchangeable and the
//     residual sequence-index tie-break cannot affect output bytes.
//
// Each shard runs ltree.Kernel, the merge loop of the serial mergers,
// under the order's tie rule. Sort parallelizes an in-memory sort the
// same way: per-core chunks sorted with record.SortRecords, merged back
// under KeyVal, which is how parallel run formation stays byte-identical
// to the serial path.
package pmerge

import (
	"fmt"
	"runtime"
	"sync"

	"srmsort/internal/ltree"
	"srmsort/internal/record"
)

// Order selects the total order a merge resolves duplicate keys under.
type Order int

const (
	// KeyRun breaks key ties by (sequence index, position) — the serial
	// merge kernels' order. Sequences must be sorted by key.
	KeyRun Order = iota
	// KeyVal breaks key ties by val, matching record.SortRecords.
	// Sequences must be sorted by (key, val).
	KeyVal
)

// Tuning thresholds. Shards below minShard records aren't worth a
// goroutine + splitter round (the SRM external merge's per-call
// super-spans are at most R*B records and typically stay under this, so
// they run serial inside the same code path); chunks below minChunk
// aren't worth splitting a sort over.
const (
	minShard = 2048
	minChunk = 1024
)

// Shard is one independent piece of a sharded R-way merge: the half-open
// extent [Lo[i], Hi[i]) of every input sequence, and the [Out, Out+N)
// extent of the output it fills.
type Shard struct {
	Lo, Hi []int // per-sequence half-open input extents
	Out    int   // records emitted by all earlier shards
	N      int   // records this shard emits
}

// Split partitions an R-way merge of seqs into p shards under the given
// order. The shards tile the inputs — shard s+1's Lo is shard s's Hi —
// and tile the output: shard s emits exactly the records of global rank
// [s*total/p, (s+1)*total/p), so shards may legitimately be empty when
// total < p. Sequences must be sorted consistently with order; p must be
// at least 1.
func Split[R record.KernelRecord](seqs [][]R, p int, order Order) []Shard {
	if p < 1 {
		panic(fmt.Sprintf("pmerge: Split into %d shards", p))
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	cuts := make([][]int, p+1)
	cuts[0] = make([]int, len(seqs))
	cuts[p] = make([]int, len(seqs))
	for i, s := range seqs {
		cuts[p][i] = len(s)
	}
	for s := 1; s < p; s++ {
		cuts[s] = cutAt(seqs, s*total/p, order)
	}
	shards := make([]Shard, p)
	for s := range shards {
		n := 0
		for i := range seqs {
			n += cuts[s+1][i] - cuts[s][i]
		}
		shards[s] = Shard{Lo: cuts[s], Hi: cuts[s+1], Out: s * total / p, N: n}
	}
	return shards
}

// cutAt returns, for each sequence, the length of the prefix that
// together contain exactly the t globally smallest records under order.
// The boundary record is found by binary search over the uint64 key space
// (and, for KeyVal, a nested search over the val space), evaluating
// Σ CountBelow per probe; the records tied with the boundary are then
// assigned to the cut in sequence-index order, which is exactly how both
// orders rank them.
func cutAt[R record.KernelRecord](seqs [][]R, t int, order Order) []int {
	cut := make([]int, len(seqs))
	if t <= 0 {
		return cut
	}
	// Smallest key whose weak rank (records with key <= k) reaches t.
	// Monotone in k, and reaches the total at MaxKey, so the search is
	// well-defined even when MaxKey itself occurs in the input.
	key := searchUint64(func(k uint64) bool {
		c := 0
		for _, s := range seqs {
			c += record.CountBelow(s, record.Key(k), true)
		}
		return c >= t
	})
	strict := func(s []R) int {
		return record.CountBelow(s, record.Key(key), false)
	}
	weak := func(s []R) int {
		return record.CountBelow(s, record.Key(key), true)
	}
	if order == KeyVal {
		// Narrow the boundary to a (key, val) pair the same way.
		val := searchUint64(func(v uint64) bool {
			c := 0
			for _, s := range seqs {
				c += record.CountBelowKV(s, record.Key(key), v, true)
			}
			return c >= t
		})
		strict = func(s []R) int {
			return record.CountBelowKV(s, record.Key(key), val, false)
		}
		weak = func(s []R) int {
			return record.CountBelowKV(s, record.Key(key), val, true)
		}
	}
	rem := t
	for i, s := range seqs {
		cut[i] = strict(s)
		rem -= cut[i]
	}
	// Distribute the records tied with the boundary in sequence order:
	// under KeyRun that is their rank order outright; under KeyVal they
	// are byte-identical (key, val) pairs, so any placement yields the
	// same output bytes — sequence order keeps cuts monotone in t.
	for i, s := range seqs {
		if rem == 0 {
			break
		}
		take := weak(s) - cut[i]
		if take > rem {
			take = rem
		}
		cut[i] += take
		rem -= take
	}
	if rem != 0 {
		panic(fmt.Sprintf("pmerge: cut rank %d unreachable (rem=%d)", t, rem))
	}
	return cut
}

// searchUint64 returns the smallest x with pred(x) true, assuming pred is
// monotone (false then true) and pred(^uint64(0)) holds.
func searchUint64(pred func(uint64) bool) uint64 {
	lo, hi := uint64(0), ^uint64(0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Merge merges the sorted sequences into out (whose length must equal the
// sum of sequence lengths) under order, using up to cores goroutines.
// cores <= 1, or a total too small to shard profitably, runs one serial
// kernel; either way the output bytes are identical.
func Merge[R record.KernelRecord](seqs [][]R, out []R, cores int, order Order) {
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	if total != len(out) {
		panic(fmt.Sprintf("pmerge: Merge of %d records into %d slots", total, len(out)))
	}
	if total == 0 {
		return
	}
	p := cores
	if p > total/minShard {
		p = total / minShard
	}
	if p <= 1 {
		mergeSerial(seqs, out, order)
		return
	}
	shards := Split(seqs, p, order)
	var wg sync.WaitGroup
	for _, sh := range shards {
		if sh.N == 0 {
			continue
		}
		wg.Add(1)
		go func(sh Shard) {
			defer wg.Done()
			sub := make([][]R, len(seqs))
			for i, s := range seqs {
				sub[i] = s[sh.Lo[i]:sh.Hi[i]]
			}
			mergeSerial(sub, out[sh.Out:sh.Out+sh.N], order)
		}(sh)
	}
	wg.Wait()
}

// mergeSerial merges seqs into out with one ltree.Kernel: the serial
// path, and every shard of the parallel path.
func mergeSerial[R record.KernelRecord](seqs [][]R, out []R, order Order) {
	k := ltree.NewKernel[R](len(seqs), order == KeyVal)
	for i, s := range seqs {
		if len(s) > 0 {
			k.Push(i, s)
		}
	}
	for pos := 0; ; {
		h, span, _ := k.Next()
		if h < 0 {
			return
		}
		pos += copy(out[pos:], span)
	}
}

// Sort sorts rs in place by (key, val) — exactly record.SortRecords'
// order — using up to cores goroutines: per-core contiguous chunks sorted
// concurrently, then merged back under KeyVal through a scratch buffer.
// cores <= 1 (or a slice too small to split profitably) is precisely
// record.SortRecords.
func Sort[R record.KernelRecord](rs []R, cores int) {
	SortScratch(rs, nil, cores)
}

// SortScratch is Sort with a caller-provided scratch buffer (grown when
// shorter than rs): the serial path hands it to the fixed-width radix
// sort, the parallel path uses it for both the per-chunk sorts (disjoint
// sub-slices) and the merge-back. Run formation reuses one buffer across
// its load loop instead of allocating per load.
func SortScratch[R record.KernelRecord](rs, scratch []R, cores int) {
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	p := cores
	if p > len(rs)/minChunk {
		p = len(rs) / minChunk
	}
	// Variable-length records (every record of a varlen sort carries a
	// non-empty Ext) fall back to the serial sort: Split's cut points and
	// the merge-back's (key, val) order work at the prefix-word level and
	// cannot adjudicate prefix ties by content.
	if p <= 1 || (len(rs) > 0 && rs[0].X() != "") {
		record.SortRecordsScratch(rs, scratch)
		return
	}
	if len(scratch) < len(rs) {
		scratch = make([]R, len(rs))
	} else {
		scratch = scratch[:len(rs)]
	}
	seqs := make([][]R, p)
	var wg sync.WaitGroup
	for i := range seqs {
		lo, hi := i*len(rs)/p, (i+1)*len(rs)/p
		seqs[i] = rs[lo:hi]
		wg.Add(1)
		go func(c, s []R) {
			defer wg.Done()
			record.SortRecordsScratch(c, s)
		}(seqs[i], scratch[lo:hi])
	}
	wg.Wait()
	Merge(seqs, scratch, cores, KeyVal)
	copy(rs, scratch)
}
