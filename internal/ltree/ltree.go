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
// Aliveness is tracked explicitly, not through the key value, so every
// uint64 — the maximal one included — is a legal key.
//
// Players compare by (key, val, index): the smaller key wins, key ties go
// to the smaller val, full ties to the lower index. A tree whose players
// all hold val zero orders by (key, index) alone.
package ltree

import "fmt"

// Tree is a loser tree over players 0..n-1. Construct with NewRetired.
type Tree struct {
	n       int
	keys    []uint64 // current key of each player
	vals    []uint64 // secondary tie value of each player
	retired []bool   // explicit aliveness: retired players lose every match
	losers  []int    // internal nodes: player index of the match loser; losers[0] is the winner
	alive   int
	scratch []int // rebuild's winner array, allocated once with the tree
	// tie, when set, breaks (key, val) ties between live players before
	// the index does: the variable-length record hook of Kernel, which
	// compares the players' head records with record.CompareExt. It is
	// consulted during rebuilds, so both players' head records must be
	// current before any Push or Update that triggers one.
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
	*t = Tree{
		n:       n,
		keys:    make([]uint64, n),
		vals:    make([]uint64, n),
		retired: make([]bool, n),
		losers:  make([]int, n),
		scratch: make([]int, 2*n),
	}
	for p := range t.retired {
		t.retired[p] = true
	}
	t.rebuild()
}

// rebuild recomputes the whole tournament in O(n).
func (t *Tree) rebuild() {
	// Play the tournament bottom-up: winner[i] for internal node i of a
	// complete binary tree with n leaves (players) at positions n..2n-1.
	winner := t.scratch
	for i := 0; i < t.n; i++ {
		winner[t.n+i] = i
	}
	for i := t.n - 1; i >= 1; i-- {
		a, b := winner[2*i], winner[2*i+1]
		w, l := t.play(a, b)
		winner[i] = w
		t.losers[i] = l
	}
	t.losers[0] = winner[1]
}

// play returns the (winner, loser) of a match under the total order of
// beats.
func (t *Tree) play(a, b int) (w, l int) {
	if t.beats(a, b) {
		return a, b
	}
	return b, a
}

// beats reports whether player a wins a match against player b: retired
// players lose to live ones, live players compare by (key, val, tie,
// index), and retired pairs order by index (irrelevant, but total).
func (t *Tree) beats(a, b int) bool {
	if t.retired[a] != t.retired[b] {
		return !t.retired[a]
	}
	if !t.retired[a] {
		if t.keys[a] != t.keys[b] {
			return t.keys[a] < t.keys[b]
		}
		if t.vals[a] != t.vals[b] {
			return t.vals[a] < t.vals[b]
		}
		if t.tie != nil {
			if c := t.tie(a, b); c != 0 {
				return c < 0
			}
		}
	}
	return a < b
}

// Len returns the number of live players.
func (t *Tree) Len() int { return t.alive }

// Min returns the winning player and its key. It panics when every player
// has retired.
func (t *Tree) Min() (player int, key uint64) {
	if t.alive == 0 {
		panic("ltree: Min of empty tree")
	}
	w := t.losers[0]
	return w, t.keys[w]
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
	w := t.losers[0]
	best := -1
	for node := (t.n + w) / 2; node >= 1; node /= 2 {
		l := t.losers[node]
		if t.retired[l] {
			continue
		}
		if best < 0 || t.beats(l, best) {
			best = l
		}
	}
	return best, t.keys[best], t.vals[best], true
}

// Update gives a live player a new (key, val) pair. Updating the current
// winner is the per-span hot path and costs one O(log R) replay; any
// other player costs an O(n) rebuild — the kernel only does that at
// block events.
func (t *Tree) Update(player int, key, val uint64) {
	t.check(player)
	if t.retired[player] {
		panic(fmt.Sprintf("ltree: Update of retired player %d", player))
	}
	t.keys[player] = key
	t.vals[player] = val
	if player == t.losers[0] {
		t.replay(player)
	} else {
		t.rebuild()
	}
}

// Push activates a retired player with the given (key, val) pair,
// rebuilding the tournament in O(n). The kernel calls it when an input's
// next block arrives — once per block, never per record.
func (t *Tree) Push(player int, key, val uint64) {
	t.check(player)
	if !t.retired[player] {
		panic(fmt.Sprintf("ltree: Push of live player %d", player))
	}
	t.retired[player] = false
	t.keys[player] = key
	t.vals[player] = val
	t.alive++
	t.rebuild()
}

// Remove retires a live player. Retiring the current winner costs one
// O(log R) replay; any other player an O(n) rebuild.
func (t *Tree) Remove(player int) {
	t.check(player)
	if t.retired[player] {
		panic(fmt.Sprintf("ltree: Remove of retired player %d", player))
	}
	t.retired[player] = true
	t.alive--
	if player == t.losers[0] {
		t.replay(player)
	} else {
		t.rebuild()
	}
}

// check panics on an out-of-range player index.
func (t *Tree) check(player int) {
	if player < 0 || player >= t.n {
		panic(fmt.Sprintf("ltree: player %d of %d", player, t.n))
	}
}

// replay re-runs the matches on player p's leaf-to-root path. It is
// correct only when p was the winner of every match on that path (i.e. p
// is the tournament winner): then the losers stored along the path are
// exactly the sibling subtree winners, so replaying against them is a
// valid tournament. Arbitrary-player changes go through rebuild instead.
func (t *Tree) replay(p int) {
	winner := p
	for node := (t.n + p) / 2; node >= 1; node /= 2 {
		w, l := t.play(winner, t.losers[node])
		t.losers[node] = l
		winner = w
	}
	t.losers[0] = winner
}
