// Command benchjson converts `go test -bench` text output into a JSON
// array, one object per benchmark line, so perf numbers can be archived
// (BENCH_sort.json) and diffed across commits by machines instead of
// eyeballs.
//
// Usage:
//
//	go test -run='^$' -bench=SortEndToEnd -benchmem . | benchjson -o BENCH_sort.json
//	benchjson -o BENCH_sort.json bench_output.txt
//	benchjson -diff BENCH_sort.json bench_sort_output.txt
//
// Every `value unit` pair after the iteration count is kept verbatim under
// its unit name ("ns/op", "B/op", "allocs/op", "ns/rec", ...), so custom
// b.ReportMetric units flow through unchanged.
//
// With -diff, the input (fresh run, text or JSON) is compared per cell
// against the given baseline JSON: ns/rec and B/rec deltas for every
// benchmark present in both, plus the cells only one side has. This is
// `make bench-diff` — the question it answers is "what did this change do
// to the committed perf trajectory" without hand-aligning two files.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// newTabWriter returns the column writer the diff table is rendered with.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
}

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "output file (default: stdout)")
	diff := flag.String("diff", "", "baseline JSON to compare the input against (prints per-cell deltas instead of JSON)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	results, err := parseAny(in)
	if err != nil {
		fatal(err)
	}

	if *diff != "" {
		base, err := loadJSON(*diff)
		if err != nil {
			fatal(err)
		}
		printDiff(os.Stdout, base, results)
		return
	}

	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// parseAny reads benchmark results as either `go test -bench` text or a
// benchjson JSON array (detected by the leading non-space byte), so -diff
// accepts a raw bench log and an archived JSON interchangeably.
func parseAny(r io.Reader) ([]result, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(raw); len(trimmed) > 0 && trimmed[0] == '[' {
		var results []result
		if err := json.Unmarshal(trimmed, &results); err != nil {
			return nil, err
		}
		if len(results) == 0 {
			return nil, fmt.Errorf("no benchmark results in JSON input")
		}
		return results, nil
	}
	return parse(bytes.NewReader(raw))
}

// loadJSON reads an archived benchjson file.
func loadJSON(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var results []result
	if err := json.NewDecoder(f).Decode(&results); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return results, nil
}

// diffMetrics are the per-cell figures bench-diff reports, in print
// order. ns/rec and B/rec are the headline numbers EXPERIMENTS.md tracks;
// cells without them (the micro-benchmarks) fall back to ns/op.
var diffMetrics = []string{"ns/rec", "B/rec", "allocs/rec", "ns/op"}

// cellName is the name a benchmark cell is matched by across runs: its
// name without the "-N" suffix `go test` appends when GOMAXPROCS is N > 1,
// so a run on a multi-CPU host matches a baseline archived from -cpu 1.
func cellName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// printDiff writes a per-cell comparison of fresh results against the
// baseline, cells matched by cellName. Delta percentages are fresh
// relative to baseline: negative is faster/smaller.
func printDiff(w io.Writer, base, fresh []result) {
	baseBy := make(map[string]result, len(base))
	for _, r := range base {
		baseBy[cellName(r.Name)] = r
	}
	freshBy := make(map[string]result, len(fresh))
	for _, r := range fresh {
		freshBy[cellName(r.Name)] = r
	}

	var onlyBase, onlyFresh []string
	for _, r := range base {
		if _, ok := freshBy[cellName(r.Name)]; !ok {
			onlyBase = append(onlyBase, r.Name)
		}
	}

	tw := newTabWriter(w)
	fmt.Fprintf(tw, "benchmark\tmetric\tbaseline\tcurrent\tdelta\n")
	for _, r := range fresh {
		b, ok := baseBy[cellName(r.Name)]
		if !ok {
			onlyFresh = append(onlyFresh, r.Name)
			continue
		}
		shown := false
		for _, m := range diffMetrics {
			bv, bok := b.Metrics[m]
			fv, fok := r.Metrics[m]
			if !bok || !fok {
				continue
			}
			// Once ns/rec exists, ns/op is redundant (it is n x ns/rec).
			if m == "ns/op" && shown {
				continue
			}
			shown = true
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\n", r.Name, m, bv, fv, deltaPct(bv, fv))
		}
	}
	tw.Flush()
	sort.Strings(onlyBase)
	sort.Strings(onlyFresh)
	for _, n := range onlyBase {
		fmt.Fprintf(w, "only in baseline: %s\n", n)
	}
	for _, n := range onlyFresh {
		fmt.Fprintf(w, "only in current run: %s\n", n)
	}
}

// deltaPct formats the relative change from baseline to fresh.
func deltaPct(base, fresh float64) string {
	if base == 0 {
		if fresh == 0 {
			return "0.0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(fresh-base)/base)
}

// parse extracts every benchmark result line from r. Non-benchmark lines
// (headers, PASS, ok) are skipped; malformed benchmark lines are errors.
func parse(r io.Reader) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			return nil, fmt.Errorf("malformed benchmark line: %q", line)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iteration count in %q: %v", line, err)
		}
		res := result{
			Name:       fields[0],
			Iterations: iters,
			Metrics:    make(map[string]float64),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("metric value in %q: %v", line, err)
			}
			res.Metrics[fields[i+1]] = v
		}
		results = append(results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
