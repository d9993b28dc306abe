// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (run `go test -bench=. -benchmem`), plus end-to-end sorting
// benchmarks. Custom metrics attach the reproduced values to the benchmark
// output: v(k,D) overheads as "v", C_SRM/C_DSM ratios as "ratio", expected
// maximum occupancies as "E[max]". The full-resolution tables are printed
// by cmd/tables; EXPERIMENTS.md records paper-vs-measured numbers.
package srmsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"srmsort/internal/analysis"
	"srmsort/internal/ltree"
	"srmsort/internal/occupancy"
	"srmsort/internal/pdisk"
	"srmsort/internal/pmerge"
	"srmsort/internal/psv"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/sim"
	"srmsort/internal/timesim"
)

// BenchmarkTable1ClassicalOccupancy regenerates Table 1 cells: the overhead
// v(k,D) = C(kD,D)/k estimated by ball-throwing Monte Carlo.
func BenchmarkTable1ClassicalOccupancy(b *testing.B) {
	for _, tc := range []struct{ k, d int }{
		{5, 5}, {5, 50}, {5, 1000},
		{50, 5}, {50, 50}, {50, 1000},
		{1000, 5}, {1000, 1000},
	} {
		b.Run(fmt.Sprintf("k=%d/D=%d", tc.k, tc.d), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = occupancy.OverheadV(tc.k, tc.d, 50, int64(i))
			}
			b.ReportMetric(v, "v")
		})
	}
}

// BenchmarkTable2WorstCaseRatio regenerates Table 2 cells: C_SRM/C_DSM with
// the ball-throwing v and the paper's memory sizing (B = 1000 records).
func BenchmarkTable2WorstCaseRatio(b *testing.B) {
	for _, tc := range []struct{ k, d int }{
		{5, 5}, {5, 100}, {50, 50}, {100, 50}, {1000, 1000},
	} {
		b.Run(fmt.Sprintf("k=%d/D=%d", tc.k, tc.d), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				v := occupancy.OverheadV(tc.k, tc.d, 50, int64(i))
				ratio = analysis.RatioSRMOverDSM(v, tc.k, tc.d, 1000)
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkTable3SRMSimulation regenerates Table 3 cells: the overhead
// v(k,D) measured by simulating the SRM merge itself on average-case
// inputs (uniform random partitions, randomized placement).
func BenchmarkTable3SRMSimulation(b *testing.B) {
	for _, tc := range []struct{ k, d int }{
		{5, 5}, {5, 10}, {5, 50},
		{10, 10}, {50, 5}, {50, 50},
	} {
		b.Run(fmt.Sprintf("k=%d/D=%d", tc.k, tc.d), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				var err error
				v, err = sim.OverheadV(tc.k, tc.d, 50, 4, 1, int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(v, "v")
		})
	}
}

// BenchmarkTable4AverageCaseRatio regenerates Table 4 cells: C'_SRM/C_DSM
// with the simulated v.
func BenchmarkTable4AverageCaseRatio(b *testing.B) {
	for _, tc := range []struct{ k, d int }{
		{5, 5}, {10, 10}, {50, 50},
	} {
		b.Run(fmt.Sprintf("k=%d/D=%d", tc.k, tc.d), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				v, err := sim.OverheadV(tc.k, tc.d, 50, 4, 1, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				ratio = analysis.RatioSRMOverDSM(v, tc.k, tc.d, 1000)
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkFigure1DependentVsClassical regenerates the Figure 1 experiment:
// the same ball count placed as cyclic chains (dependent) versus
// independently (classical); the dependent expectation stays below the
// classical one.
func BenchmarkFigure1DependentVsClassical(b *testing.B) {
	chains := []int{4, 3, 2, 2, 1} // the figure's instance: N_b=12, C=5, D=4
	b.Run("dependent", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = occupancy.EstimateDependent(chains, 4, 2000, int64(i)).Mean
		}
		b.ReportMetric(e, "E[max]")
	})
	b.Run("classical", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = occupancy.EstimateClassical(12, 4, 2000, int64(i)).Mean
		}
		b.ReportMetric(e, "E[max]")
	})
	b.Run("dependent-exact", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = occupancy.ExactDependentExpectation(chains, 4)
		}
		b.ReportMetric(e, "E[max]")
	})
	b.Run("classical-exact", func(b *testing.B) {
		var e float64
		for i := 0; i < b.N; i++ {
			e = occupancy.ExactClassicalExpectation(12, 4)
		}
		b.ReportMetric(e, "E[max]")
	})
}

// BenchmarkTheorem1Bounds evaluates the analytic read-bound expressions of
// Theorem 1 across the machine shapes of the Theorem 1 sheet.
func BenchmarkTheorem1Bounds(b *testing.B) {
	const n = 1_000_000_000
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct{ k, d, bb int }{
			{5, 50, 1000}, {100, 50, 1000}, {1000, 1000, 1000},
		} {
			m := analysis.MemoryForK(tc.k, tc.d, tc.bb)
			sink += analysis.Theorem1Reads(n, m, tc.d, tc.bb, tc.k)
		}
	}
	b.ReportMetric(sink/float64(b.N), "bound-sum")
}

func benchRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: rng.Uint64() >> 1, Val: uint64(i)}
	}
	return out
}

// benchVarRecords generates variable-length inputs for the varlen codec
// cells: 3–18 byte keys over a four-letter alphabet (so prefix ties are
// common and the content comparator is actually exercised) and 0–23 byte
// payloads.
func benchVarRecords(n int, seed int64) []VarRecord {
	rng := rand.New(rand.NewSource(seed))
	out := make([]VarRecord, n)
	for i := range out {
		key := make([]byte, 3+rng.Intn(16))
		for j := range key {
			key[j] = byte('a' + rng.Intn(4))
		}
		payload := make([]byte, rng.Intn(24))
		for j := range payload {
			payload[j] = byte(rng.Intn(256))
		}
		out[i] = VarRecord{Key: key, Payload: payload}
	}
	return out
}

// BenchmarkEndToEnd sorts the same input with each algorithm and reports
// total I/O operations alongside wall time. The op counts are the paper's
// comparison; the wall time is the simulator's own cost.
func BenchmarkEndToEnd(b *testing.B) {
	in := benchRecords(200_000, 99)
	for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM} {
		b.Run(alg.String(), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				_, stats, err := Sort(in, Config{
					D: 8, B: 64, K: 4, Algorithm: alg, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				ops = stats.TotalOps()
			}
			b.ReportMetric(float64(ops), "io-ops")
			b.ReportMetric(float64(len(in))/float64(b.Elapsed().Seconds()*float64(b.N)), "recs/s")
		})
	}
}

// benchCoresAxis is the Cores sweep of the end-to-end matrix: serial,
// two-way, and everything the host offers (deduplicated, so a small
// machine does not produce identically named rows).
func benchCoresAxis() []int {
	axis := []int{1, 2}
	if max := runtime.GOMAXPROCS(0); max > 2 {
		axis = append(axis, max)
	}
	if axis[len(axis)-1] == 1 {
		axis = axis[:1]
	}
	return axis
}

// BenchmarkSortEndToEnd is the hot-path regression matrix: every sorting
// algorithm on every storage backend across disk counts and core counts,
// with per-record CPU-cost metrics (ns/rec, B/rec, allocs/rec) alongside
// the standard per-op figures. `make bench` runs exactly this matrix and
// converts the output into BENCH_sort.json, the perf trajectory
// EXPERIMENTS.md tracks; future kernel changes regress against those
// numbers. The cores axis must leave every I/O figure unchanged — only
// ns/rec may move (down with cores on a multicore host; within noise at
// cores=1 versus the pre-parallel kernel).
//
// The codec axis: fixed16 rows keep their historical names (no /codec=
// suffix, so the trajectory in BENCH_sort.json stays diffable across this
// change), and varlen/varlen+flate rows run every algorithm on both
// backends at the D=4, cores=1 shape — the cells EXPERIMENTS.md's
// fixed16-vs-varlen overhead table reads.
func BenchmarkSortEndToEnd(b *testing.B) {
	const n = 200_000
	in := benchRecords(n, 42)
	// varIn is built lazily, on the first varlen cell: 200k live varlen
	// records carry Ext string pointers, and keeping them resident while
	// the fixed16 cells run would tax every GC cycle of those cells with
	// scan work the archive-era numbers never paid.
	var varIn []VarRecord
	for _, codec := range []string{"fixed16", "varlen", "varlen+flate"} {
		for _, alg := range []Algorithm{SRM, DSM, PSV} {
			for _, backend := range []Backend{MemBackend, FileBackend} {
				for _, d := range []int{1, 2, 4, 8} {
					if alg == PSV && d < 2 {
						continue // PSV needs >= 2 disks
					}
					coresAxis := benchCoresAxis()
					if alg == PSV {
						coresAxis = coresAxis[:1] // PSV always runs serially
					}
					if codec != "fixed16" {
						if d != 4 {
							continue
						}
						coresAxis = coresAxis[:1]
					}
					for _, cores := range coresAxis {
						name := fmt.Sprintf("alg=%s/backend=%s/D=%d/cores=%d", alg, backend, d, cores)
						if codec != "fixed16" {
							name += "/codec=" + codec
						}
						b.Run(name, func(b *testing.B) {
							b.ReportAllocs()
							var before, after runtime.MemStats
							runtime.GC()
							runtime.ReadMemStats(&before)
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								cfg := Config{
									D: d, B: 64, K: 4, Algorithm: alg, Seed: 11, Backend: backend,
									Cores: cores,
								}
								var got int
								if codec == "fixed16" {
									out, _, err := Sort(in, cfg)
									if err != nil {
										b.Fatal(err)
									}
									got = len(out)
								} else {
									cfg.Codec = codec
									if varIn == nil {
										b.StopTimer()
										varIn = benchVarRecords(n, 42)
										b.StartTimer()
									}
									out, _, err := SortVar(varIn, cfg)
									if err != nil {
										b.Fatal(err)
									}
									got = len(out)
								}
								if got != n {
									b.Fatalf("sorted %d of %d records", got, n)
								}
							}
							b.StopTimer()
							runtime.ReadMemStats(&after)
							recs := float64(n) * float64(b.N)
							b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
							b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/recs, "B/rec")
							b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
						})
					}
				}
			}
		}
	}
}

// BenchmarkSortDeadline measures what the deadline/hedging layer costs
// when nothing goes wrong: the same fault-free sort with no deadline
// policy at all, with tracking plus a generous deadline, and with a
// hedge delay so large it never fires. The deltas are the fixed
// overhead table in EXPERIMENTS.md §hedged-reads. The sortd-job cell is
// one sortd job's library call: SortStream of near-sorted records at
// D=8, checkpointed, through a shared disk gate, with sortd's retry and
// 1 s/1 s deadline policy. Like the SortEndToEnd cells it reports
// ns/rec, B/rec and allocs/rec, and `make bench` archives it in
// BENCH_sort.json: a bounded op allocates nothing, so the deadline rows
// must allocate no more than the bare row.
func BenchmarkSortDeadline(b *testing.B) {
	const n = 100_000
	in := benchRecords(n, 42)
	var wire bytes.Buffer
	if err := WriteRecords(&wire, shapedRecords(sim.ShapeNearSorted, n, 1)); err != nil {
		b.Fatal(err)
	}
	retry := pdisk.DefaultRetryPolicy()
	retry.MaxAttempts = 5
	cells := []struct {
		name string
		sort func() (int, error)
	}{
		{"bare", func() (int, error) { return sortLen(in, Config{D: 4, B: 64, K: 4, Seed: 11}) }},
		{"deadline=1s", func() (int, error) {
			return sortLen(in, Config{D: 4, B: 64, K: 4, Seed: 11, Deadline: &DeadlinePolicy{OpDeadline: time.Second}})
		}},
		{"deadline=1s+hedge=1s", func() (int, error) {
			return sortLen(in, Config{D: 4, B: 64, K: 4, Seed: 11,
				Deadline: &DeadlinePolicy{OpDeadline: time.Second, HedgeAfter: time.Second}})
		}},
		{"sortd-job", func() (int, error) {
			cfg := Config{D: 8, B: 64, K: 4, Seed: 1, Cores: 1, Checkpoint: true,
				Gate: pdisk.NewDiskGate(64, 2), Retry: &retry,
				Deadline: &DeadlinePolicy{OpDeadline: time.Second, HedgeAfter: time.Second}}
			var out bytes.Buffer
			_, err := SortStream(bytes.NewReader(wire.Bytes()), &out, cfg)
			return out.Len() / record.Bytes, err
		}},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := cell.sort()
				if err != nil {
					b.Fatal(err)
				}
				if got != n {
					b.Fatalf("sorted %d of %d records", got, n)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			recs := float64(n) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/recs, "B/rec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
		})
	}
}

// sortLen sorts in under cfg and returns the output length.
func sortLen(in []Record, cfg Config) (int, error) {
	out, _, err := Sort(in, cfg)
	return len(out), err
}

// BenchmarkSortShapes sweeps the sortedness shapes of internal/sim's
// input generators (near-sorted, reversed-runs, the up-down zigzag)
// through a fixed SRM configuration — the baseline the run-formation
// policy experiments (ROADMAP 5a) will compare against.
func BenchmarkSortShapes(b *testing.B) {
	const n = 100_000
	for _, shape := range sim.Shapes() {
		in := shapedRecords(shape, n, 5)
		b.Run(shape.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := Sort(in, Config{D: 4, B: 64, K: 4, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != n {
					b.Fatalf("sorted %d of %d records", len(out), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(n)*float64(b.N)), "ns/rec")
		})
	}
}

// BenchmarkParallelMerge is the multicore merge kernel in isolation: R
// sorted runs merged in memory through pmerge.Merge at each core count,
// far from any I/O, so the cores axis measures exactly the sharded
// kernel (binsplit + per-shard loser tree with galloped emission) against
// its serial self. ns/rec is the figure EXPERIMENTS.md's cores-scaling
// table tracks.
func BenchmarkParallelMerge(b *testing.B) {
	const n, r = 1 << 20, 16
	gen := record.NewGenerator(7)
	runs := gen.SplitIntoSortedRuns(gen.WithDuplicates(n, 1000), r)
	seqs := make([][]record.Record, len(runs))
	out := make([]record.Record, n)
	for _, cores := range benchCoresAxis() {
		b.Run(fmt.Sprintf("R=%d/cores=%d", r, cores), func(b *testing.B) {
			b.SetBytes(int64(n * record.Bytes))
			for i := 0; i < b.N; i++ {
				copy(seqs, runs)
				pmerge.Merge(seqs, out, cores, pmerge.KeyRun)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(n)*float64(b.N)), "ns/rec")
		})
	}
}

// BenchmarkMergeKernel is the merge kernel alone: ltree.Kernel over 16
// sorted inputs fed in 64-record blocks and merged in key order, the
// shape of mem-fixed16's merges (R = kD = 16, B = 64, uniform keys), and
// its varlen twin over keys of a four-letter alphabet, so prefix ties
// reach record.CompareExt. No store, schedule or output copy runs, so
// ns/rec is the selection loop's own cost: the merge-kernel layer the
// SortEndToEnd cells fold in.
func BenchmarkMergeKernel(b *testing.B) {
	const r, blk, perRun = 16, 64, 1 << 14
	rng := rand.New(rand.NewSource(3))
	b.Run("R=16/codec=fixed16", func(b *testing.B) {
		runs := make([][]record.Rec16, r)
		for i := range runs {
			runs[i] = make([]record.Rec16, perRun)
			for j := range runs[i] {
				runs[i][j] = record.Rec16{Key: record.Key(rng.Uint64() >> 1), Val: uint64(j)}
			}
			record.SortRecords(runs[i])
		}
		benchKernel(b, runs, blk)
	})
	b.Run("R=16/codec=varlen", func(b *testing.B) {
		runs := make([][]record.Record, r)
		for i := range runs {
			runs[i] = make([]record.Record, perRun)
			for j := range runs[i] {
				key := make([]byte, 3+rng.Intn(16))
				for c := range key {
					key[c] = byte('a' + rng.Intn(4))
				}
				rec, err := record.MakeVar(key, nil)
				if err != nil {
					b.Fatal(err)
				}
				runs[i][j] = rec
			}
			record.SortRecords(runs[i])
		}
		benchKernel(b, runs, blk)
	})
}

// benchKernel merges runs with one ltree.Kernel per iteration, filling a
// reused blk-record output buffer as the mergers fill their writers'
// blocks and pushing each input's next blk records when its block ends,
// and reports ns/rec.
func benchKernel[R record.KernelRecord](b *testing.B, runs [][]R, blk int) {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	next := make([]int, len(runs)) // the start of each input's next block
	out := make([]R, blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := ltree.NewKernel[R](len(runs), false)
		for h, run := range runs {
			next[h] = min(blk, len(run))
			k.Push(h, run[:next[h]])
		}
		merged, used := 0, 0
		for {
			room := out[used:]
			n, h, ended := k.Fill(room)
			merged += n
			if used += n; used == len(out) {
				used = 0
			}
			if ended {
				if end := min(next[h]+blk, len(runs[h])); end > next[h] {
					k.Push(h, runs[h][next[h]:end])
					next[h] = end
				}
			} else if n < len(room) {
				break
			}
		}
		if merged != total {
			b.Fatalf("merged %d of %d records", merged, total)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(total)*float64(b.N)), "ns/rec")
}

// BenchmarkSortFaultTolerance quantifies what the fault-tolerance
// machinery costs a fault-free sort: the plain configuration against the
// same sort with retries armed, and with retries plus per-pass
// checkpointing. The mem backend isolates the wrapper overhead (the
// FileStore checksum cost is part of the backend=file rows of
// BenchmarkSortEndToEnd); EXPERIMENTS.md tracks the ratio, which must
// stay within noise of 1.0 — robustness that taxes the fault-free path
// would be mispriced.
func BenchmarkSortFaultTolerance(b *testing.B) {
	const n = 200_000
	in := benchRecords(n, 42)
	retry := DefaultRetryPolicy()
	variants := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{D: 4, B: 64, K: 4, Seed: 11}},
		{"retry", Config{D: 4, B: 64, K: 4, Seed: 11, Retry: &retry}},
		{"retry+checkpoint", Config{D: 4, B: 64, K: 4, Seed: 11, Retry: &retry, Checkpoint: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := Sort(in, v.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != n {
					b.Fatalf("sorted %d of %d records", len(out), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(n)*float64(b.N)), "ns/rec")
		})
	}
}

// BenchmarkSingleMergeSim measures the block-level simulator's throughput
// on a paper-scale merge (R = kD runs of 200 blocks).
func BenchmarkSingleMergeSim(b *testing.B) {
	for _, tc := range []struct{ k, d int }{{10, 10}, {50, 10}} {
		b.Run(fmt.Sprintf("k=%d/D=%d", tc.k, tc.d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				runs := sim.GenerateAverageCase(rng, tc.d, tc.k*tc.d, 200, 4)
				for _, r := range runs {
					r.StartDisk = rng.Intn(tc.d)
				}
				if _, err := sim.Merge(runs, tc.d, tc.k*tc.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOccupancyTrials measures the raw Monte Carlo kernels.
func BenchmarkOccupancyTrials(b *testing.B) {
	b.Run("classical-1e4-balls", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			occupancy.ClassicalMaxTrial(rng, 10000, 100)
		}
	})
	b.Run("dependent-1e4-balls", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		chains := make([]int, 1000)
		for i := range chains {
			chains[i] = 10
		}
		for i := 0; i < b.N; i++ {
			occupancy.DependentMaxTrial(rng, chains, 100)
		}
	})
}

// BenchmarkBaselinePSV sorts with the Pai–Schaffer–Varman comparator
// (Section 2.1 prior work): merge order fixed at D plus a transposition
// pass per level. Reported io-ops include the transpositions.
func BenchmarkBaselinePSV(b *testing.B) {
	in := benchRecords(200_000, 99)
	rec := make([]record.Record, len(in))
	for i, r := range in {
		rec[i] = record.Record{Key: record.Key(r.Key), Val: r.Val}
	}
	var ops int64
	for i := 0; i < b.N; i++ {
		sys, err := pdisk.NewSystem(pdisk.Config{D: 8, B: 64})
		if err != nil {
			b.Fatal(err)
		}
		file, err := runform.LoadInput(sys, rec)
		if err != nil {
			b.Fatal(err)
		}
		sys.ResetStats()
		m := analysis.MemoryForK(4, 8, 64)
		_, stats, err := psv.Sort[record.Record](sys, file, (m+1)/2, (m/64-16)/8)
		if err != nil {
			b.Fatal(err)
		}
		ops = stats.TotalOps()
	}
	b.ReportMetric(float64(ops), "io-ops")
}

// BenchmarkAblationPlacement regenerates the placement ablation: the
// overhead v under random (SRM), staggered (Section 8) and fixed
// (adversarial, Section 3) starting disks.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, p := range []string{"random", "staggered", "fixed"} {
		b.Run(p, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				var err error
				v, err = sim.OverheadVPlacement(5, 10, 100, 4, 1, int64(i), p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(v, "v")
		})
	}
}

// BenchmarkAblationPartialStriping regenerates the [VS94] partial-striping
// ablation: clustering c of 64 physical disks lowers the occupancy
// overhead at unchanged bandwidth.
func BenchmarkAblationPartialStriping(b *testing.B) {
	for _, c := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			dPrime, bPrime, err := analysis.PartialStripe(64, 2, c)
			if err != nil {
				b.Fatal(err)
			}
			var v float64
			for i := 0; i < b.N; i++ {
				v, err = sim.OverheadV(5, dPrime, 400/c, bPrime, 1, int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(v, "v")
		})
	}
}

// BenchmarkParallelWorkers measures the host-side speedup of executing a
// pass's independent merges on multiple goroutines (identical I/O counts).
func BenchmarkParallelWorkers(b *testing.B) {
	in := benchRecords(300_000, 98)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Sort(in, Config{
					D: 8, B: 32, K: 2, Seed: 3, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverlapMakespan times the Section 5 two-control-flow simulation
// (internal/timesim): the overlapped makespan vs the serial one for one
// paper-scale merge on 1996-era disks. The custom metrics carry the
// modelled seconds.
func BenchmarkOverlapMakespan(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	runs := sim.GenerateAverageCase(rng, 8, 40, 100, 16)
	for _, r := range runs {
		r.StartDisk = rng.Intn(8)
	}
	op := pdisk.Mid1990sDisk().OpSeconds(16)
	for _, overlap := range []bool{true, false} {
		name := "overlapped"
		if !overlap {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			var res timesim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = timesim.Merge(runs, 8, 40, timesim.Params{
					B: 16, OpSeconds: op, CPUPerRecord: 2e-6, Overlap: overlap,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "model-s")
			b.ReportMetric(res.Efficiency(), "efficiency")
		})
	}
}

// pipelineDepth is the async pipeline's bound in timesim's terms: after
// Step 1, one read op in flight per merge, plus one write stripe per
// writer.
const pipelineDepth = 1

// TestOverlapAsyncBeatsSync pins the acceptance criterion of the async
// pipeline: under the paper-era disk model the overlapped schedule's
// simulated makespan is strictly below the serial one for every D >= 2
// (for D = 1 it must merely never be worse). The real pipeline's bound
// must preserve the win.
func TestOverlapAsyncBeatsSync(t *testing.T) {
	for _, d := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(17 + d)))
		runs := sim.GenerateAverageCase(rng, d, 4*d, 80, 16)
		for _, r := range runs {
			r.StartDisk = rng.Intn(d)
		}
		op := pdisk.Mid1990sDisk().OpSeconds(16)
		base := timesim.Params{B: 16, OpSeconds: op, CPUPerRecord: 2e-6}

		measure := func(overlap bool, depth int) timesim.Result {
			p := base
			p.Overlap = overlap
			p.QueueDepth = depth
			res, err := timesim.Merge(runs, d, 4*d, p)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sync := measure(false, 0)
		async := measure(true, pipelineDepth)
		if sync.ReadOps != async.ReadOps || sync.WriteOps != async.WriteOps {
			t.Fatalf("D=%d: op counts diverge (%d/%d vs %d/%d)",
				d, sync.ReadOps, sync.WriteOps, async.ReadOps, async.WriteOps)
		}
		if async.Makespan > sync.Makespan {
			t.Fatalf("D=%d: async makespan %.4fs exceeds sync %.4fs", d, async.Makespan, sync.Makespan)
		}
		if d >= 2 && async.Makespan >= sync.Makespan {
			t.Fatalf("D=%d: async makespan %.4fs not strictly below sync %.4fs",
				d, async.Makespan, sync.Makespan)
		}
	}
}

// BenchmarkOverlapSyncVsAsync measures the async pipeline both ways per
// disk count: the model-s metric is the timesim makespan of one merge
// (serial vs overlapped at the pipeline's depth), and the wall
// time is a real file-backed end-to-end Sort with and without
// Config.Async — same bytes, same op counts, different clock.
func BenchmarkOverlapSyncVsAsync(b *testing.B) {
	in := benchRecords(100_000, 7)
	for _, d := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(d)))
		runs := sim.GenerateAverageCase(rng, d, 4*d, 80, 16)
		for _, r := range runs {
			r.StartDisk = rng.Intn(d)
		}
		op := pdisk.Mid1990sDisk().OpSeconds(16)
		for _, async := range []bool{false, true} {
			mode := "sync"
			if async {
				mode = "async"
			}
			b.Run(fmt.Sprintf("D=%d/%s", d, mode), func(b *testing.B) {
				var model timesim.Result
				var ops int64
				for i := 0; i < b.N; i++ {
					var err error
					model, err = timesim.Merge(runs, d, 4*d, timesim.Params{
						B: 16, OpSeconds: op, CPUPerRecord: 2e-6,
						Overlap: async, QueueDepth: pipelineDepth,
					})
					if err != nil {
						b.Fatal(err)
					}
					_, stats, err := Sort(in, Config{
						D: d, B: 32, K: 2, Seed: 3, Async: async, Backend: FileBackend,
					})
					if err != nil {
						b.Fatal(err)
					}
					ops = stats.TotalOps()
				}
				b.ReportMetric(model.Makespan, "model-s")
				b.ReportMetric(float64(ops), "io-ops")
			})
		}
	}
}
