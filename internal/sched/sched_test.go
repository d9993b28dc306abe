package sched

import (
	"reflect"
	"testing"

	"srmsort/internal/record"
)

// run is a one-block run starting on a given disk.
type run int

func (run) NumBlocks() int            { return 1 }
func (r run) Disk(i int) int          { return int(r) + i }
func noLead(int, int, []record.Rec16) {}

// Step 1 loads every run's block 0 exactly once, at most one block per
// disk and w per read, in max(per-disk maximum, ⌈R/w⌉) reads: each read
// serves the most-loaded disks first. With w = D every read takes one
// block from each disk that has one left, in disk order.
func TestInitialBatches(t *testing.T) {
	cases := []struct {
		starts []run
		d, w   int
		want   [][]int
	}{
		// Disk-index order would read disks 0,1 then 2,3 then 3 then 3.
		{[]run{0, 1, 2, 3, 3, 3}, 4, 2, [][]int{{0, 3}, {1, 4}, {2, 5}}},
		{[]run{0, 1, 2, 3, 3, 3}, 4, 4, [][]int{{0, 1, 2, 3}, {4}, {5}}},
		{[]run{2, 2, 0, 1, 1}, 3, 1, [][]int{{3}, {0}, {2}, {4}, {1}}},
	}
	for _, tc := range cases {
		c := New(tc.starts, len(tc.starts), tc.d, tc.w, nil, noLead)
		if got := c.InitialBatches(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("starts %v D=%d w=%d: batches %v, want %v", tc.starts, tc.d, tc.w, got, tc.want)
		}
	}
}
