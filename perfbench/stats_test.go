package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, idx int
		pct    float64
	}{
		{70, 59, 100 * 60.0 / 70}, // 10 samples above index 59
		{100, 89, 90},
		{21, 10, 100 * 11.0 / 21}, // exactly the median has 10 above
		{20, 10, 55},              // too few: the upper median
		{11, 5, 100 * 6.0 / 11},
		{1, 0, 100},
	} {
		idx, pct := tailRank(tc.n, 10)
		if idx != tc.idx || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("tailRank(%d) = %d, p%.3f; want %d, p%.3f", tc.n, idx, pct, tc.idx, tc.pct)
		}
		if tc.n >= 21 && tc.n-1-idx < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond; want >= 10", tc.n, tc.n-1-idx)
		}
	}
	if idx, _ := tailRank(0, 10); idx != -1 {
		t.Errorf("tailRank(0) = %d; want -1", idx)
	}
}

func TestTailAndMedian(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i) // 30..1, unsorted
	}
	if v, pct := tail(xs); v != 20 || math.Abs(pct-100*20.0/30) > 1e-9 {
		t.Errorf("tail = %v at p%v; want 20 at p66.7", v, pct)
	}
	if m := median(xs); m != 15.5 {
		t.Errorf("median = %v; want 15.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v; want 2", m)
	}
}

// BENCHMARK.json and the metric tables the benchmark prints from must
// agree name for name, unit for unit.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit, Better string }, table []metricSpec) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(table))
			return
		}
		for i, m := range table {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if l := listed[i]; l.Name != m.name || l.Unit != m.unit || l.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %s %s %s", kind, i, l, m.name, m.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
	}
}
