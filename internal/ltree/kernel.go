package ltree

import "srmsort/internal/record"

// Kernel is the R-way merge loop of every merger in this repository —
// SRM's consumer, DSM's striped merge, PSV's merge and pmerge's shards:
// a loser tree over each input's current block, the repeat-winner
// gallop, the variable-length tie rule and one optional key bound. Fill
// runs the selections itself and writes each winner's records straight
// into the caller's buffer (an output writer's Room); it stops when the
// buffer is full, when an input's block ends, or when the bound or an
// empty tree stops it. The caller handles the end of a block (SRM's
// block event, DSM's next block of the stripe in hand, PSV's read
// decisions) by pushing the input's next block or leaving it retired.
//
// Order. Inputs compare by their head record's key, ties going to the
// lower input index. A kernel built with byVal compares (Key, Val)
// first: record.SortRecords' order for fixed-size records. Variable-
// length records (the first block pushed carries an Ext) always compare
// by their (Key, Val) prefix words and then by record.CompareExt on their
// encodings: their full content order.
//
// Gallop. An input that wins a selection right after it won the previous
// one emits, in one span, every record of its block that still precedes
// the runner-up (Challenger) and the bound, found by CountBelow's or
// CountBelowKV's exponential probe, clipped to the buffer's room. Any
// other winner emits its head record alone: on interleaved inputs the
// next record comes from the same input only about once in R, so a span
// search would almost always find one record at the price of a
// Challenger walk and two searches. Prefix words only coarsen the varlen
// order, so its spans stop before a record that merely ties a bound at
// the prefix level; the tree has already ordered the winner's head
// first, so a span is never empty. The records Fill writes are the
// same whatever the buffer sizes: a span clipped by the room resumes as
// the next call's first selection, which the same input wins again.
type Kernel[R record.KernelRecord] struct {
	tree  Tree
	heads [][]R // unconsumed tail of each input's current block; empty when retired
	// heads16 is &heads when R is record.Rec16, else nil: Fill loads the
	// winner's next head through it as fields, not by dictionary calls.
	heads16 *[][]record.Rec16
	byVal   bool // inputs compare by (Key, Val), not by Key alone
	varlen  bool // prefix ties go to record.CompareExt; bounds are exclusive
	prev    int  // the previous selection's winner; -1 after a block end or a stop

	// The key bound SetBound installs: when bounded, Fill emits no record
	// whose key is above bound, or equal to it unless inclusive.
	bounded   bool
	inclusive bool
	bound     record.Key
}

// NewKernel returns a kernel over n inputs, all retired until pushed.
// byVal selects the (Key, Val) order for fixed-size records.
func NewKernel[R record.KernelRecord](n int, byVal bool) *Kernel[R] {
	k := &Kernel[R]{heads: make([][]R, n), byVal: byVal, prev: -1}
	k.heads16, _ = any(&k.heads).(*[][]record.Rec16)
	k.tree.init(n)
	return k
}

// Head returns the unconsumed tail of input h's current block, empty when
// h is retired. The caller must not modify it.
func (k *Kernel[R]) Head(h int) []R { return k.heads[h] }

// Varlen reports whether the kernel merges variable-length records.
func (k *Kernel[R]) Varlen() bool { return k.varlen }

// Push makes blk, which must not be empty, the current block of retired
// input h. A block of variable-length records switches the kernel to
// their order; a merge pushes one before its first selection.
func (k *Kernel[R]) Push(h int, blk []R) {
	if !k.varlen && blk[0].X() != "" {
		k.varlen, k.byVal = true, true
		k.tree.tie = func(a, b int) int {
			return record.CompareExt(k.heads[a][0].X(), k.heads[b][0].X())
		}
	}
	k.heads[h] = blk
	key, val := k.words(blk[0])
	k.tree.Push(h, key, val)
}

// SetBound installs the key bound Fill respects until the next call:
// with bounded set, Fill emits no record whose key is above bound, or
// equal to it unless inclusive. A variable-length bound is always
// exclusive: a record tying it at the prefix level may truly follow it.
func (k *Kernel[R]) SetBound(bound record.Key, bounded, inclusive bool) {
	k.bound, k.bounded, k.inclusive = bound, bounded, inclusive && !k.varlen
}

// Fill runs selections and writes the records they emit into dst, in
// merge order: a winner's head record, or a repeat winner's galloped
// span clipped to the room left. It returns the number n of records
// written and stops when dst is full, or with h and ended set right after
// a span that finished input h's block: h is then retired until the
// caller pushes its next block. It also stops, with n < len(dst) and h
// -1, when no input is live or the bound blocks the winner's head.
func (k *Kernel[R]) Fill(dst []R) (n, h int, ended bool) {
	t := &k.tree
	for n < len(dst) {
		if t.alive == 0 {
			k.prev = -1
			return n, -1, false
		}
		w := t.nodes[0]
		h = w.rank
		if k.bounded {
			if key := record.Key(w.key); k.bound < key || (k.bound == key && !k.inclusive) {
				k.prev = -1
				return n, -1, false
			}
		}
		b := k.heads[h]
		c := k.span(h, b, len(dst)-n)
		if c == 1 { // most selections: a store, where copy calls memmove
			dst[n] = b[0]
		} else {
			copy(dst[n:], b[:c])
		}
		n += c
		// Advance's work, written out: this is the per-selection path,
		// where a generic method call is a real call.
		b = b[c:]
		k.heads[h] = b
		if len(b) == 0 {
			k.prev = -1
			t.Remove(h)
			return n, h, true
		}
		k.prev = h
		if k.heads16 == nil {
			w.key, w.val = k.words(b[0])
		} else if r := (*k.heads16)[h][0]; k.byVal {
			w.key, w.val = uint64(r.Key), r.Val
		} else {
			w.key, w.val = uint64(r.Key), 0
		}
		t.replay(w)
	}
	return n, -1, false
}

// span returns how many records of b, the block of the winning input h,
// its selection emits into room free slots: the head record alone unless
// h also won the previous selection, whose galloped span is clipped to
// the room.
func (k *Kernel[R]) span(h int, b []R, room int) int {
	if h != k.prev {
		return 1
	}
	return min(k.gallop(h, b), room)
}

// gallop returns how many leading records of b, the block of the repeat
// winner h, precede both the runner-up's head and the bound. Both stay
// fixed while h keeps winning, so the span is exactly what one selection
// per record would emit; both admit b's first record, so it is at least
// one.
func (k *Kernel[R]) gallop(h int, b []R) int {
	n := len(b)
	if ch, key, val, ok := k.tree.Challenger(); ok {
		switch {
		case k.varlen:
			n = min(n, max(record.CountBelowKV(b, record.Key(key), val, false), 1))
		case k.byVal:
			n = min(n, record.CountBelowKV(b, record.Key(key), val, h < ch))
		default:
			n = min(n, record.CountBelow(b, record.Key(key), h < ch))
		}
	}
	if k.bounded {
		n = min(n, record.CountBelow(b, k.bound, k.inclusive))
	}
	return n
}

// Advance moves input h past its next n records, which the caller has
// emitted itself (SRM's super-span path merges several inputs' spans at
// once). It reports whether they finished h's block, retiring h as Fill
// does.
func (k *Kernel[R]) Advance(h, n int) (ended bool) {
	b := k.heads[h][n:]
	k.heads[h] = b
	if len(b) == 0 {
		k.prev = -1
		k.tree.Remove(h)
		return true
	}
	key, val := k.words(b[0])
	k.tree.Update(h, key, val)
	return false
}

// words returns the (key, val) pair input order compares for record r.
func (k *Kernel[R]) words(r R) (key, val uint64) {
	if k.byVal {
		return uint64(r.K()), r.V()
	}
	return uint64(r.K()), 0
}
