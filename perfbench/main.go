// Command perfbench is the srmsort benchmark. One run measures one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object: whether every output was correct, how many ops
// were attempted and failed, and the metrics — the end-to-end metrics
// untraced (-trace 0), or the per-layer metrics of a traced run (-trace 1).
// Everything else goes to standard error.
//
// Usage (normally through run.py, which builds this binary and sortd):
//
//	perfbench -workload mem-fixed16 -seed 1 -seconds 20 -trace 0 \
//	    -workdir DIR -tracedir DIR [-sortd PATH]
//
// A run starts a second copy of itself with -kernel to time the reference
// kernel that brings its times to reference host speed (calib.go).
//
// The workloads, their metrics and which layer metric should move which
// end-to-end metric are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// workloadNames are the workloads, in the order BENCHMARK.json lists them.
var workloadNames = []string{"mem-fixed16", "file-varlen-async", "sortd-robust"}

// metricSpec is one reported metric: its unit, and whether a higher value
// is better.
type metricSpec struct {
	name   string
	unit   string
	higher bool
}

// endToEndMetrics are what a user of the library or of sortd sees, in the
// order BENCHMARK.json lists them.
var endToEndMetrics = []metricSpec{
	{"throughput_rec_s", "rec/s", true},
	{"latency_s_p50", "s", false},
	{"latency_s_tail", "s", false},
	{"cpu_ns_per_rec", "ns/rec", false},
	{"io_ops_per_sort", "ops", false},
	{"max_rss_mb", "MB", false},
	{"setup_s", "s", false},
}

// perLayerMetrics are the traced run's metrics, one layer each, in the
// order BENCHMARK.json lists them.
var perLayerMetrics = []metricSpec{
	{"runform.ingest_s", "s", false},
	{"runform.form_s", "s", false},
	{"srm.merge_s", "s", false},
	{"runio.egest_s", "s", false},
	{"runform.initial_runs", "count", false},
	{"runform.io_ops", "ops", false},
	{"srm.merge_passes", "count", false},
	{"srm.read_ops", "ops", false},
	{"srm.write_ops", "ops", false},
	{"srm.blocks_reread", "blocks", false},
	{"srm.reread_frac", "ratio", false},
	{"srm.read_overhead_v", "ratio", false},
	{"srm.read_parallelism", "blocks/op", true},
	{"pdisk.read_calls", "count", false},
	{"pdisk.write_calls", "count", false},
	{"pdisk.free_calls", "count", false},
	{"pdisk.read_s", "s", false},
	{"pdisk.write_s", "s", false},
	{"pdisk.read_ns_per_block", "ns/block", false},
	{"pdisk.write_ns_per_block", "ns/block", false},
	{"pdisk.peak_store_bytes_per_rec", "B/rec", false},
	{"record.stored_bytes_per_rec", "B/rec", false},
	{"record.encode_ns_per_block", "ns/block", false},
	{"record.decode_ns_per_block", "ns/block", false},
	{"pdisk.retry_self_s", "s", false},
	{"pdisk.deadline_self_s", "s", false},
	{"pdisk.retry_extra_attempts", "count", false},
	{"pdisk.hedged_reads", "count", false},
	{"pdisk.deadline_timeouts", "count", false},
	{"jobs.submit_s", "s", false},
	{"jobs.queued_s", "s", false},
	{"jobs.run_s", "s", false},
	{"jobs.result_s", "s", false},
	{"jobs.memory_peak", "records", false},
	{"jobs.refused", "count", false},
	{"gc.alloc_bytes_per_rec", "B/rec", false},
	{"gc.allocs_per_rec", "allocs/rec", false},
	{"gc.cycles_per_sort", "count", false},
	{"gc.pause_s", "s", false},
	{"trace.overhead_frac", "ratio", false},
	{"trace.unattributed_frac", "ratio", false},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// withUnits attaches each spec'd metric's unit to its value.
func withUnits(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return out
}

func endToEnd(throughput, p50, tail, cpuNsPerRec, ioOps, rssMB, setup float64) map[string]metric {
	return withUnits(endToEndMetrics, map[string]float64{
		"throughput_rec_s": throughput,
		"latency_s_p50":    p50,
		"latency_s_tail":   tail,
		"cpu_ns_per_rec":   cpuNsPerRec,
		"io_ops_per_sort":  ioOps,
		"max_rss_mb":       rssMB,
		"setup_s":          setup,
	})
}

// perLayer reports every per-layer metric; a layer the workload does not
// pass through reports 0.
func perLayer(values map[string]float64) map[string]metric {
	return withUnits(perLayerMetrics, values)
}

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		workload = flag.String("workload", "", "mem-fixed16, file-varlen-async or sortd-robust")
		seed     = flag.Int64("seed", 1, "seed every input and placement of the run derives from")
		secs     = flag.Int("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		sortd    = flag.String("sortd", "", "path of the sortd binary (sortd-robust)")
		workdir  = flag.String("workdir", "", "scratch directory for disk files")
		tracedir = flag.String("tracedir", "", "directory the traced run writes its spans to")
		kernel   = flag.Bool("kernel", false, "serve the reference kernel on stdin/stdout (the benchmark starts this itself)")
	)
	flag.Parse()
	if *kernel {
		if err := serveKernel(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench -kernel: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *workdir == "" || *tracedir == "" || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workdir, -tracedir, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*secs) * time.Second
	traced := *trace == 1
	tracePath := filepath.Join(*tracedir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))

	var res result
	var err error
	switch *workload {
	case "mem-fixed16":
		res, err = runLibrary(*workload, func() *libCase { return newMemFixed16(*seed, memFixed16Records) }, dur, traced, tracePath)
	case "file-varlen-async":
		dir := filepath.Join(*workdir, "disks")
		fmt.Fprintf(os.Stderr, "%s: disk files in %s on %s\n", *workload, dir, fsName(*workdir))
		res, err = runLibrary(*workload, func() *libCase { return newFileVarlen(*seed, fileVarlenRecords, dir) }, dur, traced, tracePath)
	case "sortd-robust":
		res, err = runSortd(*sortd, *seed, dur, traced, tracePath)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fsName names the filesystem holding dir, for the record of where the
// file workload's disk files lived.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}
