package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
	"srmsort/internal/trace"
)

func TestGenerateAverageCaseShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runs := GenerateAverageCase(rng, 4, 6, 10, 8)
	if len(runs) != 6 {
		t.Fatalf("%d runs", len(runs))
	}
	seen := map[record.Key]bool{}
	for _, r := range runs {
		if r.NumBlocks() != 10 {
			t.Fatalf("run has %d blocks, want 10", r.NumBlocks())
		}
		for i := 0; i < r.NumBlocks(); i++ {
			if r.First[i] > r.Last[i] {
				t.Fatalf("block %d: first %d > last %d", i, r.First[i], r.Last[i])
			}
			if i > 0 && r.First[i] <= r.Last[i-1] {
				t.Fatalf("block boundaries not increasing")
			}
			if seen[r.First[i]] || (r.First[i] != r.Last[i] && seen[r.Last[i]]) {
				t.Fatalf("duplicate boundary key")
			}
			seen[r.First[i]] = true
			seen[r.Last[i]] = true
		}
	}
	// Global minimum and maximum must be covered.
	minSeen, maxSeen := false, false
	for _, r := range runs {
		if r.First[0] == 1 {
			minSeen = true
		}
		if r.Last[r.NumBlocks()-1] == record.Key(6*10*8) {
			maxSeen = true
		}
	}
	if !minSeen || !maxSeen {
		t.Fatal("partition does not cover the full key range")
	}
}

func TestGenerateAverageCasePartialLastBlockNever(t *testing.T) {
	// runLen is a multiple of b by construction, so every block is full
	// and Last of the final block is the run's last record.
	rng := rand.New(rand.NewSource(2))
	runs := GenerateAverageCase(rng, 2, 3, 4, 5)
	for _, r := range runs {
		if len(r.First) != len(r.Last) {
			t.Fatalf("boundary arrays differ: %d vs %d", len(r.First), len(r.Last))
		}
	}
}

func TestMergeValidation(t *testing.T) {
	if _, err := Merge(nil, 2, 4); err == nil {
		t.Fatal("zero runs accepted")
	}
	r := &Run{StartDisk: 0, D: 2, First: []record.Key{1}, Last: []record.Key{2}}
	if _, err := Merge([]*Run{r, r, r}, 2, 2); err == nil {
		t.Fatal("overflowing merge order accepted")
	}
	bad := &Run{StartDisk: 0, D: 3, First: []record.Key{1}, Last: []record.Key{2}}
	if _, err := Merge([]*Run{bad}, 2, 2); err == nil {
		t.Fatal("mismatched D accepted")
	}
}

func TestMergeCountsSane(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 4
	runs := GenerateAverageCase(rng, d, 20, 30, 4)
	for _, r := range runs {
		r.StartDisk = rng.Intn(d)
	}
	stats, err := Merge(runs, d, 20)
	if err != nil {
		t.Fatal(err)
	}
	total := 20 * 30
	if stats.TotalBlocks != total {
		t.Fatalf("TotalBlocks = %d, want %d", stats.TotalBlocks, total)
	}
	if stats.ReadOps < int64((total+d-1)/d) {
		t.Fatalf("ReadOps %d below bandwidth bound", stats.ReadOps)
	}
	if v := stats.OverheadV(d); v < 1.0 || v > 4.0 {
		t.Fatalf("overhead v = %v implausible", v)
	}
	if stats.WriteOps != int64((total+d-1)/d) {
		t.Fatalf("WriteOps = %d", stats.WriteOps)
	}
}

// traceBoth merges the same runs (recRuns striped from starts, blocks of b
// records over d disks) with the real record-moving merger and with the
// simulator, and reports the first difference between their trace event
// streams or statistics.
func traceBoth(recRuns [][]record.Record, starts []int, d, b int) error {
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		return err
	}
	descs := make([]*runio.Run, len(recRuns))
	simRuns := make([]*Run, len(recRuns))
	for i, rs := range recRuns {
		if descs[i], err = runio.WriteRun(sys, i, starts[i], rs); err != nil {
			return err
		}
		simRuns[i] = FromRecords(rs, b, d, starts[i])
	}
	realRec := &trace.Recorder{}
	_, realStats, err := srm.Merge[record.Record](sys, descs, len(recRuns), 999, 0, srm.MergeOpts{Sink: realRec})
	if err != nil {
		return err
	}
	simRec := &trace.Recorder{}
	simStats, err := merge(simRuns, d, d, len(simRuns), simRec, untimed{})
	if err != nil {
		return err
	}
	for i := 0; i < len(realRec.Events) || i < len(simRec.Events); i++ {
		if i >= len(realRec.Events) || i >= len(simRec.Events) {
			return fmt.Errorf("real merger emitted %d events, simulator %d", len(realRec.Events), len(simRec.Events))
		}
		if !reflect.DeepEqual(realRec.Events[i], simRec.Events[i]) {
			return fmt.Errorf("event %d: real %+v, simulator %+v", i, realRec.Events[i], simRec.Events[i])
		}
	}
	if simStats.Stats != realStats.Stats {
		return fmt.Errorf("sim stats %+v != real %+v", simStats.Stats, realStats.Stats)
	}
	return nil
}

// The centrepiece: the block-level simulator and the real record-moving
// merger must produce IDENTICAL schedules on identical inputs (same keys,
// same layout) — event for event: kind, blocks, |F_t| and OutRank.
func TestSimulatorMatchesRealMerger(t *testing.T) {
	cases := []struct {
		seed                 int64
		d, b, numRuns, nblks int
	}{
		{1, 2, 4, 4, 12},
		{2, 4, 4, 8, 25},
		{3, 5, 2, 20, 10},
		{4, 3, 8, 9, 40},
		{5, 4, 4, 32, 8}, // many runs, short
		{6, 8, 2, 16, 30},
	}
	for _, tc := range cases {
		g := record.NewGenerator(tc.seed)
		recRuns := g.UniformPartitionRuns(tc.numRuns, tc.nblks*tc.b)
		startRng := rand.New(rand.NewSource(tc.seed * 31))
		starts := make([]int, tc.numRuns)
		for i := range starts {
			starts[i] = startRng.Intn(tc.d)
		}
		if err := traceBoth(recRuns, starts, tc.d, tc.b); err != nil {
			t.Errorf("case %+v: %v", tc, err)
		}
	}
}

func TestOverheadVLargeKNearOne(t *testing.T) {
	// Paper Table 3: for k=50 the overhead is 1.00 for D in {5,10,50}.
	v, err := OverheadV(50, 5, 100, 4, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1.05 {
		t.Fatalf("v(k=50, D=5) = %v, paper reports 1.00", v)
	}
}

func TestOverheadVSmallKModest(t *testing.T) {
	// Paper Table 3: v(5, 5) = 1.0, v(5, 50) = 1.2.
	v, err := OverheadV(5, 5, 200, 4, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1.15 {
		t.Fatalf("v(k=5, D=5) = %v, paper reports 1.0", v)
	}
}

func TestTable3And4(t *testing.T) {
	t3, err := Table3([]int{5, 10}, []int{5, 10}, 50, 4, 1, 44)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t3.Cells {
		for _, v := range row {
			if v < 0.99 || v > 2.0 {
				t.Fatalf("Table 3 cell %v implausible", v)
			}
		}
	}
	t4 := Table4(t3, 1000)
	for i, row := range t4.Cells {
		for j, v := range row {
			if v >= 1 || v <= 0.2 {
				t.Fatalf("Table 4 cell [%d][%d] = %v implausible", i, j, v)
			}
		}
	}
}

func TestSimulatedVBelowBallThrowingV(t *testing.T) {
	// The paper's central empirical claim: average-case simulated v
	// (Table 3) is below the worst-case-expectation v from ball throwing
	// (Table 1) for the same (k, D).
	simV, err := OverheadV(5, 10, 100, 4, 2, 45)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1 gives v(5,10) = 1.7 by ball throwing.
	if simV >= 1.7 {
		t.Fatalf("simulated v = %v not below ball-throwing 1.7", simV)
	}
}

// Randomised equivalence: across arbitrary geometries and placements the
// simulator's schedule must equal the real merger's, event for event.
func TestPropertySimulatorMatchesRealMerger(t *testing.T) {
	f := func(seed int64, dRaw, bRaw, runsRaw, blksRaw uint8) bool {
		d := int(dRaw)%6 + 2
		b := int(bRaw)%4 + 1
		numRuns := int(runsRaw)%10 + 2
		nblks := int(blksRaw)%15 + 2
		g := record.NewGenerator(seed)
		recRuns := g.UniformPartitionRuns(numRuns, nblks*b)
		startRng := rand.New(rand.NewSource(seed * 7))
		starts := make([]int, numRuns)
		for i := range starts {
			starts[i] = startRng.Intn(d)
		}
		if err := traceBoth(recRuns, starts, d, b); err != nil {
			t.Logf("seed %d D=%d B=%d runs=%d blocks=%d: %v", seed, d, b, numRuns, nblks, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Paper-scale simulated schedules pass the online invariant checker, and
// its independent re-read count agrees with the simulator's.
func TestTable3ScaleSchedulesPassChecker(t *testing.T) {
	for _, k := range []int{5, 10, 50} {
		for _, d := range []int{10, 50} {
			runs := genPlaced(t, int64(100*k+d), d, k*d, 100, 4)
			checker := trace.NewChecker(d)
			stats, err := merge(runs, d, d, k*d, checker, untimed{})
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.Err(); err != nil {
				t.Errorf("k=%d D=%d: %v", k, d, err)
			}
			if got := checker.Rereads(); got != stats.BlocksReread {
				t.Errorf("k=%d D=%d: checker counts %d re-reads, simulator %d", k, d, got, stats.BlocksReread)
			}
		}
	}
}
