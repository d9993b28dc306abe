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
	"cmp"
	"fmt"
	"log"
	"slices"

	"srmsort"
	"srmsort/internal/record"
)

func main() {
	const (
		n = 400_000
		d = 8
		b = 32
		k = 3
	)
	input := make([]srmsort.Record, 0, n)
	for _, r := range record.NewGenerator(17).Random(n) {
		input = append(input, srmsort.Record{Key: uint64(r.Key), Val: r.Val})
	}
	// The keys are distinct, so the sorted order is unique.
	want := slices.Clone(input)
	slices.SortFunc(want, func(x, y srmsort.Record) int { return cmp.Compare(x.Key, y.Key) })
	_, m, err := srmsort.Config{D: d, B: b, K: k}.MergeOrder()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sorting %d records on D=%d disks, B=%d, M=%d records (k=%d)\n\n", n, d, b, m, k)
	fmt.Printf("%6s %8s %8s %12s %12s %12s %12s\n",
		"algo", "R", "levels", "merge ops", "transpose", "total ops", "vs SRM")

	var srmTotal int64
	for _, alg := range []srmsort.Algorithm{srmsort.SRM, srmsort.DSM, srmsort.PSV} {
		out, stats, err := srmsort.Sort(input, srmsort.Config{D: d, B: b, K: k, Algorithm: alg, Seed: 5, Cores: 1})
		if err != nil {
			log.Fatal(err)
		}
		if !slices.Equal(out, want) {
			log.Fatal("output verification failed")
		}
		total := stats.TotalOps()
		if alg == srmsort.SRM {
			srmTotal = total
		}
		transpose := "-"
		if alg == srmsort.PSV {
			transpose = fmt.Sprint(stats.TransposeOps)
		}
		fmt.Printf("%6s %8d %8d %12d %12s %12d %12.2f\n",
			alg, stats.R, stats.MergePasses, stats.MergeReads+stats.MergeWrites-stats.TransposeOps,
			transpose, total, float64(total)/float64(srmTotal))
	}

	fmt.Println("\nmerge ops exclude the shared run-formation pass; 'transpose' is PSV's")
	fmt.Println("realignment cost. SRM wins on both fronts: full merge order AND no realignment.")
}
