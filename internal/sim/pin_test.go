package sim

import (
	"testing"

	"srmsort/internal/record"
)

// counts lists every Stats field, in declaration order: ReadOps,
// InitialReads, Flushes, BlocksFlushed, BlocksReread, MaxPrefetched,
// TotalBlocks, WriteOps.
type counts [8]int64

func countsOf(s Stats) counts {
	return counts{s.ReadOps, s.InitialReads, s.Flushes, s.BlocksFlushed, s.BlocksReread,
		int64(s.MaxPrefetched), int64(s.TotalBlocks), s.WriteOps}
}

// TestPinnedScheduleCounts pins the exact statistics of a few Table 3
// cells and of narrow-channel merges. The equivalence tests compare the
// simulator with the real merger, but both run the same schedule code, so
// only recorded values catch a drift inside that code. If an intentional
// schedule change moves these numbers, re-record them and say why.
func TestPinnedScheduleCounts(t *testing.T) {
	cases := []struct {
		seed               int64
		k, d, w, blocks, b int
		want               counts
	}{
		{77, 5, 5, 5, 100, 4, counts{504, 7, 0, 0, 0, 35, 2500, 500}},
		{178, 10, 10, 10, 100, 4, counts{1010, 14, 8, 20, 20, 120, 10000, 1000}},
		{279, 50, 10, 10, 100, 4, counts{5019, 57, 0, 0, 0, 520, 50000, 5000}},
		{80, 5, 50, 50, 100, 4, counts{674, 11, 388, 8052, 8052, 350, 25000, 500}},
		// Hybrid model: a 3-block channel over 8 disks and an 8-block
		// channel over 16.
		{7, 5, 8, 3, 200, 16, counts{2668, 14, 0, 0, 0, 51, 8000, 2667}},
		{81, 5, 16, 8, 100, 4, counts{1001, 10, 0, 0, 0, 104, 8000, 1000}},
	}
	for _, tc := range cases {
		runs := genPlaced(t, tc.seed, tc.d, tc.k*tc.d, tc.blocks, tc.b)
		s, err := MergeChannel(runs, tc.d, tc.w, tc.k*tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if got := countsOf(s); got != tc.want {
			t.Errorf("k=%d D=%d w=%d seed %d: counts %v, want %v", tc.k, tc.d, tc.w, tc.seed, got, tc.want)
		}
	}

	// Initial blocks per disk [1 1 1 3] through a 2-block channel load in
	// max(3, ⌈6/2⌉) = 3 rounds; filling rounds in disk-index order would
	// take 4.
	var runs []*Run
	for i, disk := range []int{0, 1, 2, 3, 3, 3} {
		k := record.Key(10 * i)
		runs = append(runs, &Run{StartDisk: disk, D: 4,
			First: []record.Key{k + 1, k + 5}, Last: []record.Key{k + 4, k + 8}})
	}
	s, err := MergeChannel(runs, 4, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := countsOf(s), (counts{7, 3, 0, 0, 0, 6, 12, 6}); got != want {
		t.Errorf("skewed initial load: counts %v, want %v", got, want)
	}
}
