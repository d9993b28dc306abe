// Package record defines the record, key and block types shared by every
// layer of the SRM reproduction, together with the input generators used by
// the tests and by the paper's experiments.
//
// A record is a fixed-size (Key, Val) pair. Only the key participates in
// ordering; Val is an opaque payload that the tests use to verify that
// sorting permutes rather than rewrites the input. Keys are uint64 and, as
// in the paper, assumed distinct inside a single merge (generators guarantee
// distinctness; the merge itself breaks ties deterministically by run index
// so duplicate keys are still sorted correctly).
package record

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// Key is the sort key of a record. The zero key is valid; MaxKey is reserved
// as an "infinity" sentinel by the forecasting machinery and is never
// produced by the generators.
type Key uint64

// MaxKey is the sentinel key larger than any key a generator produces. The
// run writer implants it as the forecast key of blocks near the end of a
// run, where no successor block exists.
const MaxKey = Key(^uint64(0))

// Record is the in-memory record every layer sorts and merges.
//
// Under the Fixed16 codec it is exactly the paper's fixed-size record: 8
// bytes of key and 8 bytes of payload, Ext empty. Under a variable-length
// codec Ext holds the record's canonical encoding (uvarint key length,
// key bytes, payload bytes — see MakeVar) and Key/Val are derived prefix
// words: Key is the big-endian first 8 bytes of the key (zero-padded,
// clamped below MaxKey) and Val the big-endian bytes 8..16 (2^64−1 for
// a clamped key). Because the (Key, Val) pair is a monotone coarsening
// of lexicographic key order, every prefix-level comparison in the merge
// machinery (loser trees, gallop bounds, forecasting keys) remains
// correct — prefix-equal records are adjudicated by CompareExt. Ext is a string so Record stays
// comparable (==, map keys) and immutable once built.
type Record struct {
	Key Key
	Val uint64
	Ext string
}

// Less orders records by key. Generators produce distinct keys, so no
// tie-break is needed here; merge layers that may see duplicates impose
// their own secondary order.
func (r Record) Less(s Record) bool { return r.Key < s.Key }

// Bytes is the encoded size of one record, used by the file-backed block
// store and the disk time model.
const Bytes = 16

// Block is a slice of records; a full block has exactly B records. Partial
// trailing blocks occur at the end of runs whose length is not a multiple
// of B.
type Block []Record

// FirstKey returns the smallest key in the block, which is its first key
// because blocks are always cut from sorted runs.
func (b Block) FirstKey() Key {
	if len(b) == 0 {
		return MaxKey
	}
	return b[0].Key
}

// LastKey returns the largest key in the block.
func (b Block) LastKey() Key {
	if len(b) == 0 {
		return MaxKey
	}
	return b[len(b)-1].Key
}

// IsSorted reports whether the block's records are in nondecreasing key
// order.
func (b Block) IsSorted() bool {
	return slices.IsSortedFunc(b, compareKeys)
}

// compareKeys orders records by key alone — the merge order, under which
// equal-keyed records compare equal.
func compareKeys(a, b Record) int { return cmp.Compare(a.Key, b.Key) }

// SortRecords sorts records in place by key, breaking key ties by Val so the
// result is deterministic even for degenerate inputs with duplicate keys.
// Variable-length records (non-empty Ext) tie-break further by CompareExt,
// which refines the (Key, Val) prefix order into the full lexicographic
// key-then-payload order. This is the run-formation hot loop: the generic
// wrapper dispatches once per call to a width-concrete sort (a dictionary
// method call per comparison would dominate), and the pointer-free width
// dispatches further into an LSD radix sort on the key word — a Rec16 is
// exactly its (Key, Val) words, so the radix result is the identical
// permutation (see sortRec16).
func SortRecords[R KernelRecord](rs []R) {
	SortRecordsScratch(rs, nil)
}

// SortRecordsScratch is SortRecords with a caller-provided ping-pong
// buffer for the fixed-width radix path (grown when shorter than rs,
// ignored by the comparison-sorted widths). Loops that sort many
// same-sized slices reuse one buffer across calls instead of allocating
// per sort.
func SortRecordsScratch[R KernelRecord](rs, scratch []R) {
	switch v := any(rs).(type) {
	case []Rec16:
		sortRec16(v, any(scratch).([]Rec16))
	case []Record:
		slices.SortFunc(v, func(a, b Record) int {
			if c := cmp.Compare(a.Key, b.Key); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Val, b.Val); c != 0 {
				return c
			}
			if a.Ext == "" && b.Ext == "" {
				return 0
			}
			return CompareExt(a.Ext, b.Ext)
		})
	default:
		panic("record: SortRecords of an unknown kernel width")
	}
}

// IsSortedRecords reports whether rs is in nondecreasing key order.
func IsSortedRecords[R KernelRecord](rs []R) bool { return Descent(0, rs) < 0 }

// Descent returns the index of the first record of rs whose key is
// below its predecessor's, prev being rs[0]'s predecessor, or -1 when rs
// continues a nondecreasing key sequence that ended at prev: the run
// writers' order check. The width dispatch happens once per call; the
// loops are concrete.
func Descent[R KernelRecord](prev Key, rs []R) int {
	switch v := any(rs).(type) {
	case []Rec16:
		for i, r := range v {
			if r.Key < prev {
				return i
			}
			prev = r.Key
		}
	case []Record:
		for i, r := range v {
			if r.Key < prev {
				return i
			}
			prev = r.Key
		}
	default:
		panic("record: Descent of an unknown kernel width")
	}
	return -1
}

// CountBelow returns the number of leading records in sorted rs with
// key < bound (or <= bound when inclusive). This is the gallop span bound
// of the merge kernels: how many records the winning run may emit before
// the selector must re-decide. It searches by exponential probing
// (1, 2, 4, ...) followed by a binary search of the final gap, so the
// common short spans of well-interleaved runs cost O(1) compares while
// long spans of presorted inputs still cost only O(log span). The
// width dispatch happens once per call; the probe loops are concrete.
func CountBelow[R KernelRecord](rs []R, bound Key, inclusive bool) int {
	switch v := any(rs).(type) {
	case []Rec16:
		return countBelow16(v, bound, inclusive)
	case []Record:
		return countBelowWide(v, bound, inclusive)
	default:
		panic("record: CountBelow of an unknown kernel width")
	}
}

func countBelow16(rs []Rec16, bound Key, inclusive bool) int {
	below := func(k Key) bool { return k < bound || (inclusive && k == bound) }
	n := len(rs)
	if n == 0 || !below(rs[0].Key) {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && below(rs[hi].Key) {
		lo = hi
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	// Invariant: rs[lo] is below the bound; rs[hi] is not (or hi == n).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if below(rs[mid].Key) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func countBelowWide(rs []Record, bound Key, inclusive bool) int {
	below := func(k Key) bool { return k < bound || (inclusive && k == bound) }
	n := len(rs)
	if n == 0 || !below(rs[0].Key) {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && below(rs[hi].Key) {
		lo = hi
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if below(rs[mid].Key) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// CountBelowKV is CountBelow under the (Key, Val) total order of
// SortRecords: it returns the number of leading records in a
// (key, val)-sorted rs that precede (bound, val) — strictly, or
// weakly when inclusive. It is the gallop span bound of merges that
// must interleave duplicate keys exactly as SortRecords orders them
// (the parallel sort's merge-back), with the same exponential-probe +
// binary-search cost profile as CountBelow.
func CountBelowKV[R KernelRecord](rs []R, bound Key, val uint64, inclusive bool) int {
	switch v := any(rs).(type) {
	case []Rec16:
		return countBelowKV16(v, bound, val, inclusive)
	case []Record:
		return countBelowKVWide(v, bound, val, inclusive)
	default:
		panic("record: CountBelowKV of an unknown kernel width")
	}
}

func countBelowKV16(rs []Rec16, bound Key, val uint64, inclusive bool) int {
	below := func(r Rec16) bool {
		if r.Key != bound {
			return r.Key < bound
		}
		return r.Val < val || (inclusive && r.Val == val)
	}
	n := len(rs)
	if n == 0 || !below(rs[0]) {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && below(rs[hi]) {
		lo = hi
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if below(rs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func countBelowKVWide(rs []Record, bound Key, val uint64, inclusive bool) int {
	below := func(r Record) bool {
		if r.Key != bound {
			return r.Key < bound
		}
		return r.Val < val || (inclusive && r.Val == val)
	}
	n := len(rs)
	if n == 0 || !below(rs[0]) {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && below(rs[hi]) {
		lo = hi
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if below(rs[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Checksum folds the multiset of records into an order-independent
// signature. Two record sequences have equal checksums if they are
// permutations of each other, with overwhelming probability; the tests use
// it to check that sorting preserves the multiset. A Rec16 checksums
// identically to its widened Record, so the two kernel instantiations of
// one input agree.
func Checksum[R KernelRecord](rs []R) (sum uint64) {
	for _, r := range rs {
		h := uint64(r.K())*0x9e3779b97f4a7c15 + r.V()*0xc2b2ae3d27d4eb4f
		ext := r.X()
		for i := 0; i < len(ext); i++ {
			h = (h ^ uint64(ext[i])) * 0x100000001b3
		}
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
		sum += h
	}
	return sum
}

// Generator produces test and experiment inputs with a private PRNG stream,
// so concurrent experiments never contend or interleave.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a deterministic generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Random returns n records with distinct pseudo-random keys and Val set to
// the record's position in the returned slice.
func (g *Generator) Random(n int) []Record {
	keys := g.distinctKeys(n)
	rs := make([]Record, n)
	for i, k := range keys {
		rs[i] = Record{Key: k, Val: uint64(i)}
	}
	return rs
}

// Sorted returns n records already in ascending key order.
func (g *Generator) Sorted(n int) []Record {
	rs := g.Random(n)
	SortRecords(rs)
	return rs
}

// Reversed returns n records in strictly descending key order — the
// adversarial input for run formation (every memory load becomes its own
// run; replacement selection degenerates to runs of length M).
func (g *Generator) Reversed(n int) []Record {
	rs := g.Sorted(n)
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
	return rs
}

// NearlySorted returns n sorted records with roughly n*fraction random
// adjacent-window swaps applied, modelling partially ordered inputs.
func (g *Generator) NearlySorted(n int, fraction float64) []Record {
	rs := g.Sorted(n)
	swaps := int(float64(n) * fraction)
	for s := 0; s < swaps; s++ {
		i := g.rng.Intn(n)
		j := i + 1 + g.rng.Intn(16)
		if j >= n {
			j = n - 1
		}
		rs[i], rs[j] = rs[j], rs[i]
	}
	return rs
}

// WithDuplicates returns n records whose keys are drawn from a universe of
// size max(1, n/dupFactor), so keys repeat ~dupFactor times on average.
func (g *Generator) WithDuplicates(n, dupFactor int) []Record {
	if dupFactor < 1 {
		dupFactor = 1
	}
	universe := n / dupFactor
	if universe < 1 {
		universe = 1
	}
	rs := make([]Record, n)
	for i := range rs {
		rs[i] = Record{Key: Key(g.rng.Intn(universe)), Val: uint64(i)}
	}
	return rs
}

// RandomVar returns n variable-length records with pseudo-random keys of
// 1..maxKeyLen bytes and payloads of 0..maxPayloadLen bytes, built by
// MakeVar. Lengths and contents are drawn from the generator's private
// stream, so the input is a pure function of the seed. Keys are not
// deduplicated: duplicate and shared-prefix keys are exactly the cases
// the variable-length merge path must adjudicate via CompareExt.
func (g *Generator) RandomVar(n, maxKeyLen, maxPayloadLen int) []Record {
	if maxKeyLen < 1 {
		panic(fmt.Sprintf("record: RandomVar maxKeyLen=%d", maxKeyLen))
	}
	rs := make([]Record, n)
	for i := range rs {
		key := make([]byte, 1+g.rng.Intn(maxKeyLen))
		for j := range key {
			// A small alphabet forces shared prefixes and full-key ties.
			key[j] = byte('a' + g.rng.Intn(4))
		}
		payload := make([]byte, g.rng.Intn(maxPayloadLen+1))
		g.rng.Read(payload)
		r, err := MakeVar(key, payload)
		if err != nil {
			panic(err)
		}
		rs[i] = r
	}
	return rs
}

// distinctKeys returns n distinct pseudo-random keys, none equal to MaxKey.
func (g *Generator) distinctKeys(n int) []Key {
	seen := make(map[Key]struct{}, n)
	keys := make([]Key, 0, n)
	for len(keys) < n {
		k := Key(g.rng.Uint64())
		if k == MaxKey {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// UniformPartitionRuns generates the paper's average-case merge input
// (Section 9.3): a uniformly random partition of the set {1, ..., L*numRuns}
// into numRuns disjoint subsets of size L, each subset sorted to form a run.
// Every partition is equally likely. The keys are exactly 1..L*numRuns, so
// the merged output is the identity sequence — convenient for verification.
func (g *Generator) UniformPartitionRuns(numRuns, runLen int) [][]Record {
	n := numRuns * runLen
	labels := make([]int, n)
	idx := 0
	for r := 0; r < numRuns; r++ {
		for i := 0; i < runLen; i++ {
			labels[idx] = r
			idx++
		}
	}
	// A uniform shuffle of the fixed label multiset makes every
	// assignment of global ranks to runs (i.e. every partition into
	// equal-size subsets) equally likely.
	g.rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	runs := make([][]Record, numRuns)
	for r := range runs {
		runs[r] = make([]Record, 0, runLen)
	}
	for pos, r := range labels {
		runs[r] = append(runs[r], Record{Key: Key(pos + 1), Val: uint64(pos)})
	}
	return runs
}

// SplitIntoSortedRuns slices rs into numRuns nearly equal contiguous pieces
// and sorts each piece, producing arbitrary (not average-case-distributed)
// sorted runs for merge tests.
func (g *Generator) SplitIntoSortedRuns(rs []Record, numRuns int) [][]Record {
	if numRuns < 1 {
		panic(fmt.Sprintf("record: SplitIntoSortedRuns numRuns=%d", numRuns))
	}
	runs := make([][]Record, 0, numRuns)
	per := (len(rs) + numRuns - 1) / numRuns
	for off := 0; off < len(rs); off += per {
		end := off + per
		if end > len(rs) {
			end = len(rs)
		}
		run := make([]Record, end-off)
		copy(run, rs[off:end])
		SortRecords(run)
		runs = append(runs, run)
	}
	return runs
}

// Blocks cuts a sorted run into blocks of b records; the final block may be
// partial. It panics if the run is not sorted, because the striped layout
// and forecasting format are only meaningful for sorted runs.
func Blocks(run []Record, b int) []Block {
	if b < 1 {
		panic(fmt.Sprintf("record: block size %d", b))
	}
	if !IsSortedRecords(run) {
		panic("record: Blocks called with an unsorted run")
	}
	blocks := make([]Block, 0, (len(run)+b-1)/b)
	for off := 0; off < len(run); off += b {
		end := off + b
		if end > len(run) {
			end = len(run)
		}
		blocks = append(blocks, Block(run[off:end]))
	}
	return blocks
}
