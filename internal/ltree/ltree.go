// Package ltree implements a tournament tree of losers, Knuth's classical
// structure for R-way internal merging (TAOCP vol. 3, Section 5.4.1 —
// exactly the reference the paper gives for internal merge processing in
// Section 5), and Kernel, the one merge loop built on it that every
// merger in this repository runs (kernel.go).
//
// Compared with a binary heap, the loser tree performs one root-to-leaf
// pass of exactly ceil(log2 R) comparisons per emitted record regardless
// of input order, which is why external sorters traditionally prefer it
// for their inner loop. Every player holds one (key, val) pair; the
// winner is read with Min and re-keyed (Update) or retired (Remove) in
// O(log R).
//
// Beyond the classical winner-only operations, the tree supports the
// dynamic membership the SRM merge needs — Push activates a retired
// player (a stalled run whose leading block arrived) and Remove retires an
// arbitrary one — and Challenger exposes the runner-up, which bounds how
// many records the winner may emit in one galloped span. Push and
// non-winner updates rebuild the tournament in O(R); the kernel only
// performs them at block events, never per record, so the per-record
// cost stays at the winner-replay O(log R).
//
// Players compare by (key, val, index): the smaller key wins, key ties go
// to the smaller val, full ties to the lower index. A tree whose players
// all hold val zero orders by (key, index) alone.
//
// The tree stores each player as a (key, val, rank) node, inline in the
// match it lost. A live player's rank is its index; a retired player's
// is n + index, with both words 2^64−1. Triple order then puts a retired
// player after every live one — one holding the maximal words included,
// so every uint64 is a legal key — and orders retired players by index.
package ltree

import (
	"fmt"
	"math/bits"
)

// node is one player: its words and its rank (see the package doc).
type node struct {
	key, val uint64
	rank     int
}

// Tree is a loser tree over players 0..n-1. Construct with NewRetired.
type Tree struct {
	n     int
	nodes []node // nodes[0] is the winner; nodes[i] is the loser of match i
	alive int
	// winners[i] is the winner of the subtree at i: player p's own node
	// at leaf n+p, kept current; match i's as of the last rebuild below n.
	winners []node
	// tie, when set, breaks (key, val) ties between live players before
	// the index does: Kernel's varlen hook, record.CompareExt on the
	// players' head records, which must be current at any Push, Update
	// or Remove.
	tie func(a, b int) int
}

// NewRetired builds a tree over n players, all retired — the starting
// state of a merge that activates runs with Push as their leading blocks
// arrive.
func NewRetired(n int) *Tree {
	t := new(Tree)
	t.init(n)
	return t
}

// init makes t a tree over n retired players.
func (t *Tree) init(n int) {
	if n == 0 {
		panic("ltree: no players")
	}
	*t = Tree{n: n, nodes: make([]node, n), winners: make([]node, 2*n)}
	for p := range n {
		t.winners[n+p] = t.retired(p)
	}
	t.rebuild()
}

// retired returns player p's node once it has retired.
func (t *Tree) retired(p int) node { return node{^uint64(0), ^uint64(0), t.n + p} }

// leaf returns x's player's position, n + index, among the leaves.
func (t *Tree) leaf(x node) int {
	if x.rank < t.n {
		return t.n + x.rank
	}
	return x.rank
}

// precedes returns 1 when a precedes b in (key, val, rank) order and 0
// otherwise, by one borrow chain: no branch, and it inlines.
func precedes(a, b node) uint64 {
	_, c := bits.Sub64(uint64(a.rank), uint64(b.rank), 0)
	_, c = bits.Sub64(a.val, b.val, c)
	_, c = bits.Sub64(a.key, b.key, c)
	return c
}

// wins returns 1 when node a wins a match against node b and 0
// otherwise: (key, val, rank) order, except that the tie hook decides
// first between two live players tying on (key, val).
func (t *Tree) wins(a, b node) uint64 {
	if t.tie != nil && a.key == b.key && a.val == b.val && a.rank < t.n && b.rank < t.n {
		if c := t.tie(a.rank, b.rank); c != 0 {
			return uint64(c) >> 63 // c < 0
		}
	}
	return precedes(a, b)
}

// rebuild replays the whole tournament in O(n) from the leaves.
func (t *Tree) rebuild() {
	w := t.winners
	for i := t.n - 1; i >= 1; i-- {
		a, b := w[2*i], w[2*i+1]
		c := precedes(b, a)
		if t.tie != nil && a.key == b.key && a.val == b.val {
			c = t.wins(b, a)
		}
		if c == 1 {
			a, b = b, a
		}
		w[i], t.nodes[i] = a, b
	}
	t.nodes[0] = w[1]
}

// Len returns the number of live players.
func (t *Tree) Len() int { return t.alive }

// Min returns the winning player and its key. It panics when every player
// has retired.
func (t *Tree) Min() (player int, key uint64) {
	if t.alive == 0 {
		panic("ltree: Min of empty tree")
	}
	return t.nodes[0].rank, t.nodes[0].key
}

// Challenger returns the runner-up — the player that would win if the
// current winner retired — with its key and val. ok is false when fewer
// than two players are live. The runner-up necessarily lost its match
// against the winner, so it is the best of the losers stored on the
// winner's leaf-to-root path — an O(log R) scan with no mutation.
func (t *Tree) Challenger() (player int, key, val uint64, ok bool) {
	if t.alive < 2 {
		return -1, 0, 0, false
	}
	best := t.retired(0)
	for i := t.leaf(t.nodes[0]) / 2; i >= 1; i /= 2 {
		if l := t.nodes[i]; t.wins(l, best) == 1 {
			best = l
		}
	}
	return best.rank, best.key, best.val, true
}

// Update gives a live player a new (key, val) pair. Updating the current
// winner is the per-span hot path and costs one O(log R) replay; any
// other player costs an O(n) rebuild — the kernel only does that at
// block events.
func (t *Tree) Update(player int, key, val uint64) {
	t.set(player, node{key, val, player}, true, "Update of retired")
}

// Push activates a retired player with the given (key, val) pair,
// rebuilding the tournament in O(n). The kernel calls it when an input's
// next block arrives — once per block, never per record.
func (t *Tree) Push(player int, key, val uint64) {
	t.set(player, node{key, val, player}, false, "Push of live")
	t.alive++
}

// Remove retires a live player. Retiring the current winner costs one
// O(log R) replay; any other player an O(n) rebuild.
func (t *Tree) Remove(player int) {
	t.set(player, t.retired(player), true, "Remove of retired")
	t.alive--
}

// set replaces player's node with x by a replay when player is the live
// winner, else by a rebuild. It panics with msg if player's aliveness ≠ live.
func (t *Tree) set(player int, x node, live bool, msg string) {
	if player < 0 || player >= t.n {
		panic(fmt.Sprintf("ltree: player %d of %d", player, t.n))
	}
	if (t.winners[t.n+player].rank == player) != live {
		panic(fmt.Sprintf("ltree: %s player %d", msg, player))
	}
	if live && t.nodes[0].rank == player {
		t.replay(x)
		return
	}
	t.winners[t.n+player] = x
	t.rebuild()
}

// replay carries w, the winner's new node, up its leaf-to-root path. It
// is correct only when w's player was the winner of every match on that
// path (i.e. it is the tournament winner): then the losers stored along
// the path are exactly the sibling subtree winners, so replaying against
// them is a valid tournament. Arbitrary-player changes go through
// rebuild instead. This is the per-selection path: only a (key, val)
// tie under a tie hook calls out, and each match's nodes are swapped by
// mask, not by a branch that random keys would mispredict half the time.
func (t *Tree) replay(w node) {
	nodes, i := t.nodes, uint(t.leaf(w))
	t.winners[i] = w
	for i /= 2; i > 0; i /= 2 {
		l := nodes[i]
		c := precedes(l, w)
		if t.tie != nil && l.key == w.key && l.val == w.val {
			c = t.wins(l, w)
		}
		m := -c // all ones when l wins: l and w swap
		k, v, r := (l.key^w.key)&m, (l.val^w.val)&m, (l.rank^w.rank)&int(m)
		nodes[i] = node{l.key ^ k, l.val ^ v, l.rank ^ r}
		w = node{w.key ^ k, w.val ^ v, w.rank ^ r}
	}
	nodes[0] = w
}
