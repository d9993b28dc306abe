// Command simmerge runs one SRM merge on average-case inputs (the paper's
// Section 9.3 experiment) and prints the detailed I/O behaviour: read
// operations, the overhead factor v, flush activity and memory usage.
//
// Usage:
//
//	simmerge -d 10 -k 10 -blocks 1000 -b 16 [-placement random|staggered|fixed]
//	         [-trials 3] [-seed 7]
//
// The paper's Table 3 corresponds to -placement random with runs of 1000
// blocks.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"srmsort/internal/occupancy"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/sim"
	"srmsort/internal/srm"
	"srmsort/internal/trace"
)

func main() {
	var (
		d         = flag.Int("d", 10, "number of disks D")
		k         = flag.Int("k", 10, "merge order parameter k (R = kD runs)")
		blocks    = flag.Int("blocks", 200, "blocks per run (paper: 1000)")
		b         = flag.Int("b", 16, "block size B in records")
		placement = flag.String("placement", "random", "starting disks: random, staggered, fixed")
		trials    = flag.Int("trials", 1, "number of independent merges to average")
		seed      = flag.Int64("seed", 7, "random seed")
		real      = flag.Bool("real", false, "run the record-moving merger (package srm) instead of the block-level simulator")
		showTrace = flag.Bool("trace", false, "with -real: print the full event trace (keep parameters small)")
		phases    = flag.Bool("phases", false, "print the phase-load analysis (Lemmas 6-8 vs occupancy theory)")
		channel   = flag.Int("channel", 0, "I/O channel width in blocks per op (hybrid D'-disk model; 0 = D)")
	)
	flag.Parse()

	if *real {
		realMerge(*d, *k, *blocks, *b, *placement, *seed, *showTrace)
		return
	}
	if *phases {
		phaseAnalysis(*d, *k, *blocks, *b, *placement, *seed)
		return
	}
	if *channel == 0 {
		*channel = *d
	}

	numRuns := *k * *d
	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("SRM merge simulation: R = kD = %d runs x %d blocks (B=%d) over D=%d disks, %s placement\n",
		numRuns, *blocks, *b, *d, *placement)

	var sumV float64
	for t := 0; t < *trials; t++ {
		runs := sim.GenerateAverageCase(rng, *d, numRuns, *blocks, *b)
		for i, r := range runs {
			switch *placement {
			case "random":
				r.StartDisk = rng.Intn(*d)
			case "staggered":
				r.StartDisk = i % *d
			case "fixed":
				r.StartDisk = 0
			default:
				fmt.Fprintf(os.Stderr, "simmerge: unknown -placement %q\n", *placement)
				os.Exit(1)
			}
		}
		stats, err := sim.MergeChannel(runs, *d, *channel, numRuns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simmerge:", err)
			os.Exit(1)
		}
		v := stats.OverheadV(*channel)
		sumV += v
		fmt.Printf("trial %d:\n", t+1)
		if *channel < *d {
			fmt.Printf("  hybrid model:      D'=%d disks share a %d-block channel\n", *d, *channel)
		}
		fmt.Printf("  input blocks:      %d   (bandwidth minimum %d read ops)\n",
			stats.TotalBlocks, (stats.TotalBlocks+*channel-1)/(*channel))
		fmt.Printf("  read ops:          %d   (I_0 = %d initial)\n", stats.ReadOps, stats.InitialReads)
		fmt.Printf("  overhead v:        %.4f\n", v)
		fmt.Printf("  write ops:         %d   (perfect parallelism)\n", stats.WriteOps)
		fmt.Printf("  virtual flushes:   %d ops, %d blocks, %d re-read\n",
			stats.Flushes, stats.BlocksFlushed, stats.BlocksReread)
		fmt.Printf("  peak prefetch:     %d blocks of the R+2D = %d budget\n",
			stats.MaxPrefetched, numRuns+2**d)
	}
	if *trials > 1 {
		fmt.Printf("mean overhead v over %d trials: %.4f\n", *trials, sumV/float64(*trials))
	}
}

// phaseAnalysis empirically connects Lemma 6/8 to the occupancy theory of
// Section 7: it generates one average-case merge input, computes the
// per-phase loads L'_i (each a dependent-occupancy realisation of R balls
// in D bins), and compares their mean with a classical-occupancy Monte
// Carlo estimate and the Theorem 2 bound; finally it runs the simulated
// merge and checks the measured reads against the I_0 + sum L'_i bound.
func phaseAnalysis(d, k, blocks, b int, placement string, seed int64) {
	numRuns := k * d
	rng := rand.New(rand.NewSource(seed))
	runs := sim.GenerateAverageCase(rng, d, numRuns, blocks, b)
	for i, r := range runs {
		switch placement {
		case "random":
			r.StartDisk = rng.Intn(d)
		case "staggered":
			r.StartDisk = i % d
		case "fixed":
			r.StartDisk = 0
		default:
			fmt.Fprintf(os.Stderr, "simmerge: unknown -placement %q\n", placement)
			os.Exit(1)
		}
	}
	i0, loads := sim.PhaseLoads(runs, d)
	var sum int64
	max := 0
	hist := map[int]int{}
	for _, l := range loads {
		sum += int64(l)
		hist[l]++
		if l > max {
			max = l
		}
	}
	mean := float64(sum) / float64(len(loads))
	mc := occupancy.EstimateClassical(numRuns, d, 4000, seed+5)
	bound := occupancy.BoundForBalls(float64(k), d)
	fmt.Printf("phase analysis: R = kD = %d runs x %d blocks over D=%d disks (%s placement)\n",
		numRuns, blocks, d, placement)
	fmt.Printf("  phases:                      %d (R blocks each)\n", len(loads))
	fmt.Printf("  I_0 (initial reads):         %d\n", i0)
	fmt.Printf("  mean phase load E[L'_i]:     %.3f   (perfect balance: %d)\n", mean, k)
	fmt.Printf("  classical occupancy C(R,D):  %s (conjectured upper bound on E[L'_i])\n", mc)
	fmt.Printf("  Theorem 2 bound:             %.3f\n", bound)
	fmt.Printf("  load histogram:")
	for l := 0; l <= max; l++ {
		if hist[l] > 0 {
			fmt.Printf("  %d:%d", l, hist[l])
		}
	}
	fmt.Println()
	stats, err := sim.Merge(runs, d, numRuns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simmerge:", err)
		os.Exit(1)
	}
	phaseBound := sim.PhaseBound(runs, d)
	fmt.Printf("  measured reads:              %d\n", stats.ReadOps)
	fmt.Printf("  Lemma 6/8 bound I_0+sum L'i: %d   (holds: %v)\n",
		phaseBound, stats.ReadOps <= phaseBound)
}

// realMerge runs the record-moving merger on a small average-case input,
// with the online invariant checker attached, optionally rendering the full
// schedule trace.
func realMerge(d, k, blocks, b int, placement string, seed int64, showTrace bool) {
	numRuns := k * d
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simmerge:", err)
		os.Exit(1)
	}
	g := record.NewGenerator(seed)
	recRuns := g.UniformPartitionRuns(numRuns, blocks*b)
	rng := rand.New(rand.NewSource(seed))
	descs := make([]*runio.Run, numRuns)
	for i, rs := range recRuns {
		start := 0
		switch placement {
		case "random":
			start = rng.Intn(d)
		case "staggered":
			start = i % d
		case "fixed":
		default:
			fmt.Fprintf(os.Stderr, "simmerge: unknown -placement %q\n", placement)
			os.Exit(1)
		}
		descs[i], err = runio.WriteRun(sys, i, start, record.ToRec16(rs))
		if err != nil {
			fmt.Fprintln(os.Stderr, "simmerge:", err)
			os.Exit(1)
		}
	}
	checker := trace.NewChecker(d)
	recorder := &trace.Recorder{}
	var sink trace.Sink = checker
	if showTrace {
		sink = trace.Multi(checker, recorder)
	}
	sys.ResetStats()
	_, stats, err := srm.Merge[record.Rec16](sys, descs, numRuns, numRuns, 0, srm.MergeOpts{Sink: sink})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simmerge:", err)
		os.Exit(1)
	}
	if showTrace {
		if err := recorder.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "simmerge:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("real SRM merge: R=%d runs x %d blocks (B=%d) over D=%d disks, %s placement\n",
		numRuns, blocks, b, d, placement)
	total := numRuns * blocks
	fmt.Printf("  read ops:        %d (I_0=%d, bandwidth minimum %d)\n",
		stats.ReadOps, stats.InitialReads, (total+d-1)/d)
	fmt.Printf("  overhead v:      %.4f\n", float64(stats.ReadOps)*float64(d)/float64(total))
	fmt.Printf("  write ops:       %d\n", stats.WriteOps)
	fmt.Printf("  virtual flushes: %d ops, %d blocks, %d re-read\n",
		stats.Flushes, stats.BlocksFlushed, stats.BlocksReread)
	if err := checker.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "simmerge: INVARIANT VIOLATION:", err)
		os.Exit(1)
	}
	fmt.Println("  scheduling invariants: all checks passed ✓")
}
