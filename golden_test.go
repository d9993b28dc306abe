package srmsort

import "testing"

// Golden regression tests: the I/O schedule is fully deterministic given
// the configuration and seed, so exact operation counts pin the scheduler
// against silent drift. If an intentional algorithm change moves these
// numbers, re-baseline deliberately and explain the change.
func TestGoldenScheduleCounts(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		n    int
		want Stats
	}{
		{
			// R = 32 runs in one pass; the bandwidth minimum is
			// 100000/512 ≈ 196 merge reads.
			name: "srm-8x64-k4",
			cfg:  Config{D: 8, B: 64, K: 4, Seed: 7},
			n:    100_000,
			want: Stats{Algorithm: SRM, D: 8, B: 64, M: 6400, R: 32, InitialRuns: 32, MergePasses: 1,
				RunFormationReads: 196, RunFormationWrites: 219, MergeReads: 207, MergeWrites: 196,
				Flushes: 17, BlocksFlushed: 51, BlocksReread: 51,
				ReadParallelism: 7.883374689826303, WriteParallelism: 7.532530120481928,
				ReadBalance: 1.012275731822474, WriteBalance: 1.0083173384516955},
		},
		{
			// DSM's merge order is k+1 = 5, so 32 runs take 3 passes of
			// ~2*196 ops each.
			name: "dsm-8x64-k4",
			cfg:  Config{D: 8, B: 64, K: 4, Algorithm: DSM},
			n:    100_000,
			want: Stats{Algorithm: DSM, D: 8, B: 64, M: 6400, R: 5, InitialRuns: 32, MergePasses: 3,
				RunFormationReads: 196, RunFormationWrites: 219, MergeReads: 616, MergeWrites: 593,
				ReadParallelism: 7.699507389162561, WriteParallelism: 7.699507389162561,
				ReadBalance: 1.0390275111964171, WriteBalance: 1.0390275111964171},
		},
		{
			name: "srm-deterministic-identical-to-itself",
			cfg:  Config{D: 5, B: 16, K: 3, Algorithm: SRMDeterministic},
			n:    40_000,
			want: Stats{Algorithm: SRMDeterministic, D: 5, B: 16, M: 875, R: 15, InitialRuns: 92, MergePasses: 2,
				RunFormationReads: 500, RunFormationWrites: 548, MergeReads: 1015, MergeWrites: 1006,
				ReadParallelism: 4.99009900990099, WriteParallelism: 4.864864864864865,
				ReadBalance: 1.0006613756613756, WriteBalance: 1.0006613756613756},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := benchRecords(tc.n, 123)
			for run := 0; run < 2; run++ { // the second run checks reproducibility
				_, stats, err := Sort(in, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if stats != tc.want {
					t.Fatalf("run %d: schedule drifted from the recorded counts:\n got %+v\nwant %+v", run, stats, tc.want)
				}
			}
		})
	}
}
