package main

import (
	"testing"
)

// The traced replay must reproduce the library sort exactly — the
// equivalence gate the traced run applies to every replay.
func TestReplayMatchesLibrarySort(t *testing.T) {
	for name, c := range map[string]*libCase{
		"mem-fixed16":       newMemFixed16(3, 40_000),
		"file-varlen-async": newFileVarlen(3, 20_000, t.TempDir()),
	} {
		st, err := c.sort()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := c.check()
		if !want.sortedPermutationOf(c.in) {
			t.Fatalf("%s: library output is not a sorted permutation of the input", name)
		}
		tr := newTracer()
		o, err := c.replay(tr)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if got := c.check(); got != want {
			t.Errorf("%s: replay output digest %+v; library %+v", name, got, want)
		}
		if !sameStats(o.stats, st) {
			t.Errorf("%s: replay stats %+v; library %+v", name, o.stats, st)
		}
		l := o.layers(tr, c.n, c.concurrent)
		if l["srm.read_ops"] != float64(st.MergeReads) || l["pdisk.read_calls"] == 0 || l["srm.merge_s"] <= 0 {
			t.Errorf("%s: implausible layers %v", name, l)
		}
		if u := l["trace.unattributed_frac"]; u < 0 || u > 0.5 {
			t.Errorf("%s: unattributed share %v", name, u)
		}
	}
}
