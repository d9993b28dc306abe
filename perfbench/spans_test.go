package main

import (
	"math"
	"testing"
	"time"
)

func ivs(pairs ...time.Duration) []interval {
	var out []interval
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, interval{pairs[i], pairs[i+1]})
	}
	sortIntervals(out)
	return out
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi time.Duration
		want   time.Duration
	}{
		{"none", nil, 0, 10, 0},
		{"disjoint", ivs(1, 2, 4, 6), 0, 10, 3},
		{"overlap counts once", ivs(1, 5, 3, 7), 0, 10, 6},
		{"nested", ivs(1, 9, 2, 3, 4, 5), 0, 10, 8},
		{"touching", ivs(1, 3, 3, 5), 0, 10, 4},
		{"clipped at both ends", ivs(0, 4, 8, 20), 2, 10, 4},
		{"outside the window", ivs(0, 2, 10, 12), 2, 10, 0},
		{"unsorted input sorted first", ivs(6, 8, 1, 3, 2, 7), 0, 10, 7},
	} {
		if got := covered(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: covered = %v; want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{10, 30}
	children := ivs(5, 12, 15, 20, 18, 25, 28, 40)
	// Covered inside [10,30): [10,12) + [15,25) + [28,30) = 2+10+2.
	if got := selfTime(span, children, false); got != 6 {
		t.Errorf("sync self time = %v; want 6", got)
	}
	if got := selfTime(span, children, true); got != 20 {
		t.Errorf("concurrent self time = %v; want the full 20", got)
	}
	if got := selfTime(span, nil, false); got != 20 {
		t.Errorf("childless self time = %v; want 20", got)
	}
}

func TestTracerUnattributed(t *testing.T) {
	tr := newTracer()
	root := tr.add("op", -1, interval{0, 100})
	tr.add("a", root, interval{0, 40})
	tr.add("b", root, interval{50, 90})
	c := tr.add("c", root, interval{85, 95})
	tr.add("grandchild", c, interval{95, 100}) // not a direct child: ignored
	if got := tr.unattributed(root); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("unattributed = %v; want 0.15", got)
	}
}
