package ltree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"srmsort/internal/iheap"
	"srmsort/internal/record"
)

// pushAll returns a tree over len(keys) players, each pushed with its key.
func pushAll(keys []uint64) *Tree {
	tr := NewRetired(len(keys))
	for p, k := range keys {
		tr.Push(p, k, 0)
	}
	return tr
}

func TestSingleRunDrain(t *testing.T) {
	tr := pushAll([]uint64{5})
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	p, k := tr.Min()
	if p != 0 || k != 5 {
		t.Fatalf("Min = %d,%d", p, k)
	}
	tr.Update(0, 9, 0)
	if _, k := tr.Min(); k != 9 {
		t.Fatalf("after update, key = %d", k)
	}
	tr.Remove(0)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after retirement", tr.Len())
	}
}

func TestMergeThreeRuns(t *testing.T) {
	runs := [][]uint64{
		{1, 4, 7, 10},
		{2, 5, 8},
		{3, 6, 9, 11, 12},
	}
	pos := make([]int, len(runs))
	keys := make([]uint64, len(runs))
	for i, r := range runs {
		keys[i] = r[0]
		pos[i] = 1
	}
	tr := pushAll(keys)
	var out []uint64
	for tr.Len() > 0 {
		p, k := tr.Min()
		out = append(out, k)
		if pos[p] < len(runs[p]) {
			tr.Update(p, runs[p][pos[p]], 0)
			pos[p]++
		} else {
			tr.Remove(p)
		}
	}
	if len(out) != 12 {
		t.Fatalf("merged %d keys", len(out))
	}
	for i := range out {
		if out[i] != uint64(i+1) {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

// A player holding the maximal uint64 key is live: aliveness is in the
// rank, so no key value means "retired".
func TestMaxKeyIsLive(t *testing.T) {
	tr := NewRetired(4)
	tr.Push(1, ^uint64(0), 0)
	tr.Push(3, 1, 0)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if p, k := tr.Min(); p != 3 || k != 1 {
		t.Fatalf("Min = %d,%d", p, k)
	}
	tr.Remove(3)
	if p, k := tr.Min(); p != 1 || k != ^uint64(0) {
		t.Fatalf("Min = %d,%#x, want the MaxKey player", p, k)
	}
}

func TestTieBreakByPlayer(t *testing.T) {
	tr := pushAll([]uint64{7, 7, 7})
	for want := 0; want < 3; want++ {
		p, _ := tr.Min()
		if p != want {
			t.Fatalf("Min player = %d, want %d", p, want)
		}
		tr.Remove(p)
	}
}

// Vals break key ties before the player index does.
func TestTieBreakByVal(t *testing.T) {
	tr := NewRetired(3)
	tr.Push(0, 7, 2)
	tr.Push(1, 7, 1)
	tr.Push(2, 7, 2)
	for _, want := range []int{1, 0, 2} {
		if p, _ := tr.Min(); p != want {
			t.Fatalf("Min player = %d, want %d", p, want)
		}
		if want != 2 {
			if ch, _, _, ok := tr.Challenger(); !ok || ch == want {
				t.Fatalf("Challenger = %d,%v", ch, ok)
			}
		}
		p, _ := tr.Min()
		tr.Remove(p)
	}
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"no players":     func() { NewRetired(0) },
		"min empty":      func() { NewRetired(1).Min() },
		"update retired": func() { NewRetired(1).Update(0, 1, 0) },
		"push live":      func() { pushAll([]uint64{1}).Push(0, 2, 0) },
		"remove retired": func() { NewRetired(2).Remove(1) },
		"player oob":     func() { pushAll([]uint64{1}).Update(1, 1, 0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// The loser tree and the indexed heap must produce identical merge
// sequences (both break ties by player index).
func TestMatchesIndexedHeap(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		nRuns := int(nRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]uint64, nRuns)
		for i := range runs {
			n := rng.Intn(30)
			runs[i] = make([]uint64, n)
			for j := range runs[i] {
				runs[i][j] = uint64(rng.Intn(40))
			}
			sort.Slice(runs[i], func(a, b int) bool { return runs[i][a] < runs[i][b] })
		}

		mergeLT := func() []uint64 {
			tr := NewRetired(nRuns)
			pos := make([]int, nRuns)
			for i, r := range runs {
				if len(r) > 0 {
					tr.Push(i, r[0], 0)
					pos[i] = 1
				}
			}
			var out []uint64
			for tr.Len() > 0 {
				p, k := tr.Min()
				out = append(out, k)
				if pos[p] < len(runs[p]) {
					tr.Update(p, runs[p][pos[p]], 0)
					pos[p]++
				} else {
					tr.Remove(p)
				}
			}
			return out
		}
		mergeHeap := func() []uint64 {
			h := iheap.New(nRuns)
			pos := make([]int, nRuns)
			for i, r := range runs {
				if len(r) > 0 {
					h.Push(i, r[0])
					pos[i] = 1
				}
			}
			var out []uint64
			for h.Len() > 0 {
				p, k := h.Min()
				out = append(out, k)
				if pos[p] < len(runs[p]) {
					h.Update(p, runs[p][pos[p]])
					pos[p]++
				} else {
					h.Remove(p)
				}
			}
			return out
		}

		a, b := mergeLT(), mergeHeap()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTournament(t *testing.T) {
	const n = 1000
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	tr := pushAll(keys)
	prev := uint64(0)
	for tr.Len() > 0 {
		p, k := tr.Min()
		if k < prev {
			t.Fatal("not monotone")
		}
		prev = k
		tr.Remove(p)
	}
}

// newKernel returns a kernel with each nonempty run pushed as one block.
func newKernel(runs [][]record.Rec16, byVal bool) *Kernel[record.Rec16] {
	k := NewKernel[record.Rec16](len(runs), byVal)
	for i, r := range runs {
		if len(r) > 0 {
			k.Push(i, r)
		}
	}
	return k
}

// kernelMerge drains a kernel over runs through Fill, room records at a
// time, and returns the emitted records.
func kernelMerge(runs [][]record.Rec16, byVal bool, room int) (out []record.Rec16) {
	k := newKernel(runs, byVal)
	buf := make([]record.Rec16, room)
	for {
		n, _, ended := k.Fill(buf)
		out = append(out, buf[:n]...)
		if !ended && n < room {
			return out
		}
	}
}

// The kernel emits a first-time winner's head alone and gallops only on a
// repeat winner, whose span runs up to the runner-up's head (inclusive
// when the winner has the lower index). A span clipped by the room
// resumes at the next selection, which the same input wins again. The
// test runs one selection per Fill, its room sized by span.
func TestKernelRepeatWinnerGallop(t *testing.T) {
	runs := [][]record.Rec16{
		{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 5}, {Key: 9}},
		{{Key: 5}, {Key: 6}},
	}
	for _, tc := range []struct {
		room  int
		spans []int
	}{
		{8, []int{1, 3, 1, 1, 1}},    // 1 | 2 3 5 | 5 | 6 | 9
		{2, []int{1, 2, 1, 1, 1, 1}}, // 1 | 2 3 | 5 | 5 | 6 | 9
	} {
		k := newKernel(runs, false)
		dst := make([]record.Rec16, tc.room)
		var spans []int
		var out []record.Rec16
		for k.tree.Len() > 0 {
			h := k.tree.nodes[0].rank
			c := k.span(h, k.heads[h], tc.room)
			if n, _, _ := k.Fill(dst[:c]); n != c {
				t.Fatalf("room %d: Fill of a %d-record span wrote %d", tc.room, c, n)
			}
			spans = append(spans, c)
			out = append(out, dst[:c]...)
		}
		if !slices.Equal(spans, tc.spans) {
			t.Fatalf("room %d: spans %v, want %v", tc.room, spans, tc.spans)
		}
		if want := kernelMerge(runs, false, tc.room); !slices.Equal(out, want) {
			t.Fatalf("room %d: one selection per Fill merged %v, Fill alone %v", tc.room, out, want)
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Key > out[i].Key {
				t.Fatalf("room %d: output not sorted: %v", tc.room, out)
			}
		}
	}
}

// A byVal kernel merges (key, val)-sorted inputs into SortRecords' order;
// a key-only kernel keeps equal keys in input order.
func TestKernelOrders(t *testing.T) {
	runs := [][]record.Rec16{
		{{Key: 4, Val: 3}, {Key: 4, Val: 5}},
		{{Key: 4, Val: 1}, {Key: 4, Val: 4}, {Key: ^record.Key(0), Val: 0}},
	}
	byVal := kernelMerge(runs, true, 2)
	want := append(append([]record.Rec16(nil), runs[0]...), runs[1]...)
	record.SortRecords(want)
	byKey := kernelMerge(runs, false, 1)
	wantKey := []record.Rec16{runs[0][0], runs[0][1], runs[1][0], runs[1][1], runs[1][2]}
	for i := range want {
		if byVal[i] != want[i] || byKey[i] != wantKey[i] {
			t.Fatalf("byVal %v (want %v), byKey %v (want %v)", byVal, want, byKey, wantKey)
		}
	}
}

// The bound stops Fill at the first head above it (or equal, unless
// inclusive), and clips a galloped span there.
func TestKernelBound(t *testing.T) {
	for _, inclusive := range []bool{false, true} {
		k := NewKernel[record.Rec16](1, false)
		k.Push(0, []record.Rec16{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 3}, {Key: 4}})
		k.SetBound(3, true, inclusive)
		dst := make([]record.Rec16, 8)
		n, h, ended := k.Fill(dst)
		want := 2
		if inclusive {
			want = 4
		}
		if n != want || h != -1 || ended {
			t.Fatalf("inclusive=%v: Fill = (%d, %d, %v) emitting %v, want %d records and a stop",
				inclusive, n, h, ended, dst[:n], want)
		}
		if dst[n-1].Key > 3 {
			t.Fatalf("inclusive=%v: emitted %v past the bound", inclusive, dst[:n])
		}
	}
}

// Variable-length inputs compare by content when their prefix words tie,
// and a tied runner-up still lets the winner emit its head.
func TestKernelVarlen(t *testing.T) {
	mk := func(key string) record.Record {
		r, err := record.MakeVar([]byte(key), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	runs := [][]record.Record{
		{mk("AAAAAAAAAAAAAAAAB"), mk("AAAAAAAAAAAAAAAAD")},
		{mk("AAAAAAAAAAAAAAAAA"), mk("AAAAAAAAAAAAAAAAC"), mk("AAAAAAAAAAAAAAAAE")},
	}
	k := NewKernel[record.Record](len(runs), false)
	for i, r := range runs {
		k.Push(i, r)
	}
	k.SetBound(record.MaxKey, true, true)
	var got []string
	dst := make([]record.Record, 2)
	for {
		n, _, ended := k.Fill(dst)
		for _, r := range dst[:n] {
			key, _, _ := record.VarParts(r)
			got = append(got, string(key[16:]))
		}
		if !ended && n < len(dst) {
			break
		}
	}
	if len(got) != 5 || got[0] != "A" || got[1] != "B" || got[2] != "C" || got[3] != "D" || got[4] != "E" {
		t.Fatalf("merged %v, want A..E", got)
	}
	if !k.Varlen() {
		t.Fatal("kernel did not switch to the varlen order")
	}
}

// FuzzTreeOps drives a tree through random Push, Update and Remove calls
// on winner and non-winner players, checking Len, Min and Challenger
// after every call against a brute-force reference in (key, val, index)
// order — (key, val, tie, index) when withTie installs a tie hook. Words
// come mostly from {0, 1, 2^64−2, 2^64−1}, so a live player holding the
// maximal words meets retired ones, whose nodes carry those words too.
func FuzzTreeOps(f *testing.F) {
	f.Add(uint8(4), false, []byte{0, 3, 3, 4, 7, 7, 8, 0, 0, 2, 0, 0, 6, 0, 0})
	f.Add(uint8(5), true, []byte{0, 3, 3, 4, 3, 3, 8, 3, 3, 1, 2, 2, 5, 0, 0, 10, 0, 0})
	f.Add(uint8(16), false, []byte{0, 130, 7, 4, 155, 9, 8, 3, 3, 12, 131, 7, 1, 6, 6, 5, 9, 9, 2, 0, 0})
	special := [4]uint64{0, 1, ^uint64(0) - 1, ^uint64(0)}
	word := func(b byte) uint64 {
		switch b % 4 {
		case 0, 1:
			return special[b>>2%4]
		case 2:
			return uint64(b >> 4) // small: ties between players are common
		default:
			return uint64(b) * 0x9e3779b97f4a7c15
		}
	}
	f.Fuzz(func(t *testing.T, nRaw uint8, withTie bool, prog []byte) {
		n := int(nRaw)%17 + 1
		tr := NewRetired(n)
		live := make([]bool, n)
		keys, vals, ext := make([]uint64, n), make([]uint64, n), make([]int, n)
		if withTie {
			tr.tie = func(a, b int) int { return ext[a] - ext[b] }
		}
		less := func(a, b int) bool {
			if keys[a] != keys[b] {
				return keys[a] < keys[b]
			}
			if vals[a] != vals[b] {
				return vals[a] < vals[b]
			}
			if withTie && ext[a] != ext[b] {
				return ext[a] < ext[b]
			}
			return a < b
		}
		// rank returns the live players' best and second best, -1 if none.
		rank := func() (cnt, best, second int) {
			best, second = -1, -1
			for p := range live {
				switch {
				case !live[p]:
					continue
				case best < 0 || less(p, best):
					best, second = p, best
				case second < 0 || less(p, second):
					second = p
				}
				cnt++
			}
			return cnt, best, second
		}
		// pick returns the first player at or after start, cyclically,
		// whose aliveness is want, or -1.
		pick := func(start int, want bool) int {
			for i := range n {
				if p := (start + i) % n; live[p] == want {
					return p
				}
			}
			return -1
		}
		for ; len(prog) >= 3; prog = prog[3:] {
			op, kb, vb := prog[0], prog[1], prog[2]
			p := pick(int(op>>3), op%3 != 0)
			if cnt, best, _ := rank(); op%3 != 0 && op&4 == 0 && cnt > 0 {
				p = best // the winner: replay instead of rebuild
			}
			if p < 0 {
				continue
			}
			switch op % 3 {
			case 0:
				keys[p], vals[p], ext[p], live[p] = word(kb), word(vb), int(kb>>6), true
				tr.Push(p, keys[p], vals[p])
			case 1:
				keys[p], vals[p], ext[p] = word(kb), word(vb), int(vb>>6)
				tr.Update(p, keys[p], vals[p])
			case 2:
				live[p] = false
				tr.Remove(p)
			}
			cnt, best, second := rank()
			if tr.Len() != cnt {
				t.Fatalf("Len = %d, want %d", tr.Len(), cnt)
			}
			if cnt > 0 {
				if w, k := tr.Min(); w != best || k != keys[best] {
					t.Fatalf("Min = %d,%#x, want %d,%#x", w, k, best, keys[best])
				}
			}
			ch, k, v, ok := tr.Challenger()
			if ok != (cnt >= 2) || ok && (ch != second || k != keys[second] || v != vals[second]) {
				t.Fatalf("Challenger = %d,%#x,%#x,%v, want %d (of %d live)", ch, k, v, ok, second, cnt)
			}
		}
	})
}

func BenchmarkUpdateWinner(b *testing.B) {
	for _, players := range []int{16, 512} {
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, players)
		for i := range keys {
			keys[i] = uint64(rng.Intn(1 << 30))
		}
		b.Run(fmt.Sprintf("R=%d/ltree", players), func(b *testing.B) {
			tr := pushAll(keys)
			for i := 0; i < b.N; i++ {
				p, k := tr.Min()
				tr.Update(p, k+uint64(rng.Intn(64)), 0)
			}
		})
		b.Run(fmt.Sprintf("R=%d/iheap", players), func(b *testing.B) {
			h := iheap.New(players)
			for i, k := range keys {
				h.Push(i, k)
			}
			for i := 0; i < b.N; i++ {
				p, k := h.Min()
				h.Update(p, k+uint64(rng.Intn(64)))
			}
		})
	}
}
