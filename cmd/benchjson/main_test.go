package main

import (
	"bytes"
	"strings"
	"testing"
)

// Cells match modulo the GOMAXPROCS suffix, and only that suffix.
func TestCellName(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkServerThroughput/jobs=16-2":                "BenchmarkServerThroughput/jobs=16",
		"BenchmarkServerThroughput/jobs=16":                  "BenchmarkServerThroughput/jobs=16",
		"BenchmarkSortEndToEnd/alg=SRM/D=4/cores=1-8":        "BenchmarkSortEndToEnd/alg=SRM/D=4/cores=1",
		"BenchmarkSortDeadline/deadline=1s+hedge=1s":         "BenchmarkSortDeadline/deadline=1s+hedge=1s",
		"BenchmarkSortDeadline/sortd-job-4":                  "BenchmarkSortDeadline/sortd-job",
		"BenchmarkSortDeadline/sortd-job":                    "BenchmarkSortDeadline/sortd-job",
		"BenchmarkX-":                                        "BenchmarkX-",
		"BenchmarkCodec/codec=varlen+flate/mode=x-y":         "BenchmarkCodec/codec=varlen+flate/mode=x-y",
		"BenchmarkSortEndToEnd/alg=SRM/codec=varlen+flate-2": "BenchmarkSortEndToEnd/alg=SRM/codec=varlen+flate",
	} {
		if got := cellName(name); got != want {
			t.Errorf("cellName(%q) = %q, want %q", name, got, want)
		}
	}
}

// A run at GOMAXPROCS 2 is compared with a baseline archived from -cpu 1
// cell by cell, not reported as two disjoint sets.
func TestDiffMatchesAcrossCPUSuffix(t *testing.T) {
	base := []result{{Name: "BenchmarkServerThroughput/jobs=4", Metrics: map[string]float64{"ns/op": 100}}}
	fresh, err := parse(strings.NewReader("BenchmarkServerThroughput/jobs=4-2   10   80 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printDiff(&out, base, fresh)
	if s := out.String(); strings.Contains(s, "only in") || !strings.Contains(s, "-20.0%") {
		t.Fatalf("diff did not match the cells:\n%s", s)
	}
}
