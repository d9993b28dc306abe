// baselines compares three parallel-disk mergesorts on identical inputs:
//
//   - SRM (the paper's contribution): runs striped with random starting
//     disks, forecast-driven reads, merge order R = Θ(M/B);
//   - DSM (disk striping): the disks act as one logical disk, merge order
//     only Θ(M/DB);
//   - PSV (Pai–Schaffer–Varman 1994, discussed in Section 2.1): one run
//     per disk, merge order fixed at D, plus a transposition pass between
//     merge levels to realign striped outputs onto single disks.
//
// The output shows the paper's Section 2 narrative as live numbers: DSM
// loses by taking more passes, PSV loses by paying a full extra read+write
// pass per level.
//
//	go run ./examples/baselines
package main

import (
	"fmt"
	"log"
	"math/rand"

	"srmsort/internal/analysis"
	"srmsort/internal/dsm"
	"srmsort/internal/pdisk"
	"srmsort/internal/psv"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

func main() {
	const (
		n = 400_000
		d = 8
		b = 32
		k = 3
	)
	m := analysis.MemoryForK(k, d, b)
	load := (m + 1) / 2
	g := record.NewGenerator(17)
	input := g.Random(n)
	want := record.Checksum(input)

	fmt.Printf("sorting %d records on D=%d disks, B=%d, M=%d records (k=%d)\n\n", n, d, b, m, k)
	fmt.Printf("%6s %8s %8s %12s %12s %12s %12s\n",
		"algo", "R", "levels", "merge ops", "transpose", "total ops", "vs SRM")

	var srmTotal int64

	// SRM.
	{
		sys := mustSys(d, b)
		file := mustLoad(sys, input)
		sys.ResetStats()
		pl := &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(5))}
		formed, err := runform.MemoryLoad[record.Record](sys, file, load, pl, 0)
		if err != nil {
			log.Fatal(err)
		}
		r := analysis.SRMMergeOrder(m, d, b)
		final, stats, _, err := srm.SortRunsOpts[record.Record](sys, formed.Runs, r, pl, formed.NextSeq, srm.SortOpts{})
		if err != nil {
			log.Fatal(err)
		}
		total := sys.Stats().Ops()
		verify(sys, final, want)
		srmTotal = total
		fmt.Printf("%6s %8d %8d %12d %12s %12d %12s\n",
			"SRM", r, stats.MergePasses, stats.ReadOps+stats.WriteOps, "-", total, "1.00")
	}

	// DSM.
	{
		sys := mustSys(d, b)
		file := mustLoad(sys, input)
		sys.ResetStats()
		r := analysis.DSMMergeOrder(m, d, b)
		runs, err := dsm.FormRunsCores[record.Record](sys, file, load, false, 1)
		if err != nil {
			log.Fatal(err)
		}
		final, stats, _, err := dsm.MergeAll[record.Record](sys, runs, r, len(runs), dsm.MergeAllOpts{})
		if err != nil {
			log.Fatal(err)
		}
		total := sys.Stats().Ops()
		got, err := dsm.ReadAll[record.Record](sys, final)
		if err != nil {
			log.Fatal(err)
		}
		if !record.IsSortedRecords(got) || record.Checksum(got) != want {
			log.Fatal("DSM output verification failed")
		}
		fmt.Printf("%6s %8d %8d %12d %12s %12d %12.2f\n",
			"DSM", r, stats.MergePasses, stats.MergeReadOps+stats.MergeWriteOps, "-",
			total, float64(total)/float64(srmTotal))
	}

	// PSV.
	{
		sys := mustSys(d, b)
		file := mustLoad(sys, input)
		sys.ResetStats()
		bufBlocks := (m/b - 2*d) / d // per-run lookahead from the same memory
		final, stats, err := psv.Sort[record.Record](sys, file, load, bufBlocks)
		if err != nil {
			log.Fatal(err)
		}
		verify(sys, final, want)
		total := stats.TotalOps()
		fmt.Printf("%6s %8d %8d %12d %12d %12d %12.2f\n",
			"PSV", d, stats.MergeLevels, stats.MergeReadOps+stats.MergeWriteOps,
			stats.TransposeReadOps+stats.TransposeWriteOps,
			total, float64(total)/float64(srmTotal))
	}

	fmt.Println("\nmerge ops exclude the shared run-formation pass; 'transpose' is PSV's")
	fmt.Println("realignment cost. SRM wins on both fronts: full merge order AND no realignment.")
}

func mustSys(d, b int) *pdisk.System {
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

func mustLoad(sys *pdisk.System, input []record.Record) *runform.InputFile {
	file, err := runform.LoadInput(sys, input)
	if err != nil {
		log.Fatal(err)
	}
	return file
}

func verify(sys *pdisk.System, final *runio.Run, want uint64) {
	got, err := runio.ReadAll[record.Record](sys, final)
	if err != nil {
		log.Fatal(err)
	}
	if !record.IsSortedRecords(got) || record.Checksum(got) != want {
		log.Fatal("output verification failed")
	}
}
