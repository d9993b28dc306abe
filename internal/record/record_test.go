package record

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockFirstLastKey(t *testing.T) {
	b := Block{{Key: 3}, {Key: 7}, {Key: 9}}
	if b.FirstKey() != 3 || b.LastKey() != 9 {
		t.Fatalf("FirstKey=%d LastKey=%d, want 3 and 9", b.FirstKey(), b.LastKey())
	}
	var empty Block
	if empty.FirstKey() != MaxKey || empty.LastKey() != MaxKey {
		t.Fatalf("empty block keys = %d,%d, want MaxKey", empty.FirstKey(), empty.LastKey())
	}
}

func TestCloneOf(t *testing.T) {
	b := []Record{{Key: 1, Val: 10}, {Key: 2, Val: 20}}
	c := CloneOf(b)
	c[0].Key = 99
	if b[0].Key != 1 || len(c) != len(b) {
		t.Fatal("CloneOf aliases the original records")
	}
	n := []Rec16{{Key: 1, Val: 10}}
	cn := CloneOf(n)
	cn[0].Key = 99
	if n[0].Key != 1 {
		t.Fatal("CloneOf aliases the original Rec16 records")
	}
}

func TestSortRecordsStableOnTies(t *testing.T) {
	rs := []Record{{Key: 5, Val: 2}, {Key: 5, Val: 1}, {Key: 1, Val: 0}}
	SortRecords(rs)
	want := []Record{{Key: 1, Val: 0}, {Key: 5, Val: 1}, {Key: 5, Val: 2}}
	for i := range rs {
		if rs[i] != want[i] {
			t.Fatalf("rs[%d] = %v, want %v", i, rs[i], want[i])
		}
	}
}

func TestChecksumPermutationInvariant(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		g := NewGenerator(seed)
		rs := g.Random(int(n) + 1)
		perm := make([]Record, len(rs))
		copy(perm, rs)
		r := rand.New(rand.NewSource(seed + 1))
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		return Checksum(rs) == Checksum(perm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	g := NewGenerator(7)
	rs := g.Random(100)
	mut := make([]Record, len(rs))
	copy(mut, rs)
	mut[13].Val++
	if Checksum(rs) == Checksum(mut) {
		t.Fatal("checksum failed to detect a mutated record")
	}
}

func TestGeneratorRandomDistinctKeys(t *testing.T) {
	g := NewGenerator(1)
	rs := g.Random(5000)
	seen := make(map[Key]bool, len(rs))
	for _, r := range rs {
		if seen[r.Key] {
			t.Fatalf("duplicate key %d", r.Key)
		}
		if r.Key == MaxKey {
			t.Fatal("generator produced the MaxKey sentinel")
		}
		seen[r.Key] = true
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(42).Random(100)
	b := NewGenerator(42).Random(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSortedAndReversed(t *testing.T) {
	g := NewGenerator(3)
	s := g.Sorted(200)
	if !IsSortedRecords(s) {
		t.Fatal("Sorted output not sorted")
	}
	r := g.Reversed(200)
	for i := 1; i < len(r); i++ {
		if r[i-1].Key <= r[i].Key {
			t.Fatalf("Reversed not strictly descending at %d", i)
		}
	}
}

func TestGeneratorWithDuplicates(t *testing.T) {
	g := NewGenerator(4)
	rs := g.WithDuplicates(1000, 10)
	seen := make(map[Key]int)
	for _, r := range rs {
		seen[r.Key]++
	}
	if len(seen) > 200 {
		t.Fatalf("expected heavy duplication, got %d distinct keys in 1000", len(seen))
	}
}

func TestUniformPartitionRuns(t *testing.T) {
	g := NewGenerator(5)
	const numRuns, runLen = 7, 13
	runs := g.UniformPartitionRuns(numRuns, runLen)
	if len(runs) != numRuns {
		t.Fatalf("got %d runs, want %d", len(runs), numRuns)
	}
	seen := make(map[Key]bool)
	for i, run := range runs {
		if len(run) != runLen {
			t.Fatalf("run %d has %d records, want %d", i, len(run), runLen)
		}
		if !IsSortedRecords(run) {
			t.Fatalf("run %d not sorted", i)
		}
		for _, r := range run {
			if seen[r.Key] {
				t.Fatalf("key %d appears twice", r.Key)
			}
			seen[r.Key] = true
		}
	}
	for k := 1; k <= numRuns*runLen; k++ {
		if !seen[Key(k)] {
			t.Fatalf("key %d missing from the partition", k)
		}
	}
}

// The partition generator must make every run equally likely to hold any
// given rank; check that rank 1 (the global minimum) lands in each run with
// roughly uniform frequency.
func TestUniformPartitionRunsUniformity(t *testing.T) {
	const numRuns, trials = 4, 4000
	counts := make([]int, numRuns)
	g := NewGenerator(99)
	for i := 0; i < trials; i++ {
		runs := g.UniformPartitionRuns(numRuns, 5)
		for r, run := range runs {
			if run[0].Key == 1 {
				counts[r]++
			}
		}
	}
	for r, c := range counts {
		// Expected 1000 each; 4 sigma ≈ 110.
		if c < 850 || c > 1150 {
			t.Fatalf("run %d received the minimum %d/%d times; distribution looks biased: %v",
				r, c, trials, counts)
		}
	}
}

func TestSplitIntoSortedRuns(t *testing.T) {
	g := NewGenerator(6)
	rs := g.Random(100)
	runs := g.SplitIntoSortedRuns(rs, 7)
	total := 0
	for _, run := range runs {
		if !IsSortedRecords(run) {
			t.Fatal("run not sorted")
		}
		total += len(run)
	}
	if total != 100 {
		t.Fatalf("runs cover %d records, want 100", total)
	}
}

func TestBlocks(t *testing.T) {
	g := NewGenerator(8)
	run := g.Sorted(25)
	bs := Blocks(run, 8)
	if len(bs) != 4 {
		t.Fatalf("got %d blocks, want 4", len(bs))
	}
	if len(bs[3]) != 1 {
		t.Fatalf("final partial block has %d records, want 1", len(bs[3]))
	}
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	if n != 25 {
		t.Fatalf("blocks cover %d records, want 25", n)
	}
}

func TestBlocksPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Blocks accepted an unsorted run")
		}
	}()
	Blocks([]Record{{Key: 2}, {Key: 1}}, 1)
}

func TestBlocksFirstKeysAscend(t *testing.T) {
	f := func(seed int64, n uint8, bsz uint8) bool {
		g := NewGenerator(seed)
		run := g.Sorted(int(n) + 1)
		bs := Blocks(run, int(bsz)%9+1)
		for i := 1; i < len(bs); i++ {
			if bs[i-1].FirstKey() >= bs[i].FirstKey() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
