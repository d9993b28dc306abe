package timesim

import (
	"math"
	"math/rand"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/sim"
)

// TestPinnedOverlapResults pins the results of examples/overlap's merges:
// the operation counts exactly, the times to a relative 1e-9. Timing adds
// only a clock to the untimed schedule, so these catch a drift in either.
func TestPinnedOverlapResults(t *testing.T) {
	const d, k, blocks, b = 8, 5, 200, 64
	rng := rand.New(rand.NewSource(3))
	runs := sim.GenerateAverageCase(rng, d, k*d, blocks, b)
	for _, r := range runs {
		r.StartDisk = rng.Intn(d)
	}
	op := pdisk.Mid1990sDisk().OpSeconds(b)
	cases := []struct {
		cpu     float64
		overlap bool
		depth   int
		want    Result
	}{
		{200e-9, true, 0, Result{Makespan: 27.00863191428451, CPUBusy: 0.10239999999999999, IOBusy: 27.008598714285714, CPUStall: 26.77359965714174}},
		{200e-9, false, 0, Result{Makespan: 27.11099871428442, CPUBusy: 0.10239999999999999, IOBusy: 27.008598714285714, CPUStall: 27.008598714284506}},
		{2e-6, true, 0, Result{Makespan: 27.00893071428451, CPUBusy: 1.024, IOBusy: 27.008598714285714, CPUStall: 25.85662385714176}},
		{2e-6, false, 0, Result{Makespan: 28.03259871428432, CPUBusy: 1.024, IOBusy: 27.008598714285714, CPUStall: 27.008598714284435}},
		{20e-6, true, 0, Result{Makespan: 27.01191871428451, CPUBusy: 10.24, IOBusy: 27.008598714285714, CPUStall: 16.68686585714184}},
		{20e-6, false, 0, Result{Makespan: 37.24859871428481, CPUBusy: 10.24, IOBusy: 27.008598714285714, CPUStall: 27.008598714284954}},
		{100e-6, true, 0, Result{Makespan: 51.46937242857182, CPUBusy: 51.2, IOBusy: 27.008598714285714, CPUStall: 0.22872728571430406}},
		{100e-6, false, 0, Result{Makespan: 78.2085987142852, CPUBusy: 51.2, IOBusy: 27.008598714285714, CPUStall: 27.008598714284766}},
		{20e-6, true, 1, Result{Makespan: 27.03587357142737, CPUBusy: 10.24, IOBusy: 27.008598714285714, CPUStall: 16.76925099999898}},
		{20e-6, true, 2, Result{Makespan: 27.01191871428451, CPUBusy: 10.24, IOBusy: 27.008598714285714, CPUStall: 16.73198485714185}},
		{20e-6, true, 4, Result{Makespan: 27.01191871428451, CPUBusy: 10.24, IOBusy: 27.008598714285714, CPUStall: 16.705362285713278}},
		{20e-6, true, 8, Result{Makespan: 27.01191871428451, CPUBusy: 10.24, IOBusy: 27.008598714285714, CPUStall: 16.686865857141843}},
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for _, tc := range cases {
		got, err := Merge(runs, d, k*d, Params{B: b, OpSeconds: op, CPUPerRecord: tc.cpu, Overlap: tc.overlap, QueueDepth: tc.depth})
		if err != nil {
			t.Fatal(err)
		}
		if got.ReadOps != 1029 || got.WriteOps != 1000 ||
			!near(got.Makespan, tc.want.Makespan) || !near(got.CPUStall, tc.want.CPUStall) ||
			!near(got.CPUBusy, tc.want.CPUBusy) || !near(got.IOBusy, tc.want.IOBusy) {
			t.Errorf("cpu/rec %v overlap %v depth %d:\n got %+v\nwant %+v (1029 reads, 1000 writes)",
				tc.cpu, tc.overlap, tc.depth, got, tc.want)
		}
	}
}
