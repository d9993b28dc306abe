package chaos

import (
	"fmt"
	"testing"
	"time"

	"srmsort"
)

// TestChaosMatrix sweeps algorithm × backend × D under a 5% transient
// fault probability, with one simulated mid-write process kill per
// checkpoint-capable cell. Every cell must complete — through retries,
// resumes or restarts — with output byte-identical to its fault-free
// run. The whole matrix is seeded: a failure replays exactly.
func TestChaosMatrix(t *testing.T) {
	algorithms := []srmsort.Algorithm{
		srmsort.SRM, srmsort.SRMDeterministic, srmsort.DSM, srmsort.PSV,
	}
	backends := []srmsort.Backend{srmsort.MemBackend, srmsort.FileBackend}
	disks := []int{1, 2, 4, 8}

	seed := int64(1)
	for _, alg := range algorithms {
		for _, backend := range backends {
			for _, d := range disks {
				seed++
				if alg == srmsort.PSV && d == 1 {
					continue // PSV needs D >= 2 by construction
				}
				cell := Cell{
					Algorithm: alg,
					Backend:   backend,
					D:         d,
					Records:   1200,
					Seed:      seed,
					FailProb:  0.05,
					Kill:      true,
				}
				name := fmt.Sprintf("%v-%s-D%d", alg, backend, d)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if cell.Backend == srmsort.FileBackend {
						cell.Dir = t.TempDir()
					}
					res, err := Run(cell)
					if err != nil {
						t.Fatal(err)
					}
					if cell.Kill && !res.Killed {
						t.Fatal("armed kill never fired")
					}
					t.Logf("attempts=%d killed=%v", res.Attempts, res.Killed)
				})
			}
		}
	}
}

// TestChaosCoresResume is the multicore wing of the chaos matrix: sorts
// running with Cores > 1 are killed mid-write and resumed by an
// incarnation with a DIFFERENT core count. The checkpoint manifest
// records only I/O state — run layout, pass number, placement draws —
// so the core count is free to change across a crash, and the recovered
// output must still match the fault-free run byte for byte.
func TestChaosCoresResume(t *testing.T) {
	pairs := []struct{ cores, resume int }{
		{1, 4}, // serial writer, parallel recoverer
		{4, 1}, // parallel writer, serial recoverer
		{2, 8}, // parallel both, different widths
	}
	seed := int64(9000)
	for _, alg := range []srmsort.Algorithm{srmsort.SRM, srmsort.DSM} {
		for _, backend := range []srmsort.Backend{srmsort.MemBackend, srmsort.FileBackend} {
			for _, p := range pairs {
				seed++
				cell := Cell{
					Algorithm:   alg,
					Backend:     backend,
					D:           4,
					Records:     1200,
					Seed:        seed,
					FailProb:    0.05,
					Kill:        true,
					Cores:       p.cores,
					ResumeCores: p.resume,
				}
				name := fmt.Sprintf("%v-%s-cores%d-resume%d", alg, backend, p.cores, p.resume)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if cell.Backend == srmsort.FileBackend {
						cell.Dir = t.TempDir()
					}
					res, err := Run(cell)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Killed {
						t.Fatal("armed kill never fired")
					}
					t.Logf("attempts=%d", res.Attempts)
				})
			}
		}
	}
}

// TestChaosVarlen is the codec axis of the chaos matrix: variable-length
// sorts killed mid-write under transient faults, resumed under the codec
// the checkpoint manifest records, and byte-compared (in wire encoding)
// against the fault-free run.
func TestChaosVarlen(t *testing.T) {
	cells := []Cell{
		{Algorithm: srmsort.SRM, Backend: srmsort.MemBackend, D: 4, Codec: "varlen", Kill: true},
		{Algorithm: srmsort.SRM, Backend: srmsort.FileBackend, D: 4, Codec: "varlen", Kill: true},
		{Algorithm: srmsort.SRM, Backend: srmsort.FileBackend, D: 2, Codec: "varlen+flate", Kill: true},
		{Algorithm: srmsort.DSM, Backend: srmsort.FileBackend, D: 4, Codec: "varlen", Kill: true},
		{Algorithm: srmsort.PSV, Backend: srmsort.FileBackend, D: 4, Codec: "varlen", Kill: true},
	}
	for i, cell := range cells {
		cell.Records = 1000
		cell.Seed = int64(7100 + i)
		cell.FailProb = 0.05
		name := fmt.Sprintf("%v-%s-%s", cell.Algorithm, cell.Backend, cell.Codec)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if cell.Backend == srmsort.FileBackend {
				cell.Dir = t.TempDir()
			}
			res, err := Run(cell)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Kill && !res.Killed {
				t.Fatal("armed kill never fired")
			}
			t.Logf("attempts=%d killed=%v", res.Attempts, res.Killed)
		})
	}
}

// TestChaosCellValidation covers the harness's own failure modes.
func TestChaosCellValidation(t *testing.T) {
	_, err := Run(Cell{Algorithm: srmsort.SRM, Backend: srmsort.FileBackend,
		D: 2, Records: 100, Seed: 1})
	if err == nil {
		t.Fatal("file cell without Dir accepted")
	}
}

// TestChaosDeterministic replays one seeded cell twice and expects the
// same recovery trajectory — the property that makes a chaos failure
// debuggable.
func TestChaosDeterministic(t *testing.T) {
	cell := Cell{Algorithm: srmsort.SRM, Backend: srmsort.MemBackend,
		D: 4, Records: 1000, Seed: 77, FailProb: 0.08, Kill: true}
	a, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical cells diverged: %+v vs %+v", a, b)
	}
}

// TestChaosStragglers runs the heavy-tail wing: every operation draws a
// seeded Pareto delay (microsecond scale, millisecond tail) under a
// deadline/hedging layer, on top of the usual transient faults. The
// cells must finish byte-identical to the fault-free run in bounded
// wall-clock — hedges and timeouts may reorder and re-issue I/O, but
// they must never change a byte.
func TestChaosStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("straggler cells use real (microsecond) sleeps")
	}
	cells := []struct {
		name string
		cell Cell
	}{
		// Hedge-dominated: the 4 ms Pareto cap stays under the 20 ms
		// deadline, so stragglers are rescued by the 2 ms hedge alone.
		{"srm-mem-hedge", Cell{Algorithm: srmsort.SRM, Backend: srmsort.MemBackend,
			D: 4, Records: 1000, Seed: 501, FailProb: 0.02,
			Straggle: true, OpDeadline: 20 * time.Millisecond, HedgeAfter: 2 * time.Millisecond}},
		{"dsm-file-hedge", Cell{Algorithm: srmsort.DSM, Backend: srmsort.FileBackend,
			D: 4, Records: 1000, Seed: 502, FailProb: 0.02,
			Straggle: true, OpDeadline: 20 * time.Millisecond, HedgeAfter: 2 * time.Millisecond}},
		// Timeout-dominated: a 3 ms deadline sits inside the 4 ms tail
		// cap, so the slowest ops genuinely time out and are re-issued
		// by the retry layer.
		{"srm-mem-timeout", Cell{Algorithm: srmsort.SRM, Backend: srmsort.MemBackend,
			D: 4, Records: 1000, Seed: 503, FailProb: 0.02,
			Straggle: true, OpDeadline: 3 * time.Millisecond}},
		// Straggle plus a mid-write kill: recovery and hedging compose.
		{"srm-file-kill", Cell{Algorithm: srmsort.SRM, Backend: srmsort.FileBackend,
			D: 4, Records: 1000, Seed: 504, FailProb: 0.02, Kill: true,
			Straggle: true, OpDeadline: 20 * time.Millisecond, HedgeAfter: 2 * time.Millisecond}},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cell := tc.cell
			if cell.Backend == srmsort.FileBackend {
				cell.Dir = t.TempDir()
			}
			start := time.Now()
			res, err := Run(cell)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Minute {
				t.Fatalf("straggler cell took %v; the tail model must stay bounded", elapsed)
			}
			t.Logf("attempts=%d killed=%v", res.Attempts, res.Killed)
		})
	}
}

// TestChaosStuckOp arms one read halfway through the sort to hang for
// 250 ms — the stuck-disk scenario. With a 20 ms deadline the op is
// abandoned and re-issued (or rescued by a hedge) long before the hang
// resolves; the sort must complete byte-identical without ever waiting
// out the stuck transfer serially.
func TestChaosStuckOp(t *testing.T) {
	if testing.Short() {
		t.Skip("stuck-op cells hold a real 250 ms hang in the background")
	}
	cells := []struct {
		name string
		cell Cell
	}{
		{"srm-mem-deadline", Cell{Algorithm: srmsort.SRM, Backend: srmsort.MemBackend,
			D: 4, Records: 1000, Seed: 601, FailProb: 0.02,
			StuckRead: true, OpDeadline: 20 * time.Millisecond}},
		{"srm-file-deadline", Cell{Algorithm: srmsort.SRM, Backend: srmsort.FileBackend,
			D: 4, Records: 1000, Seed: 602, FailProb: 0.02,
			StuckRead: true, OpDeadline: 20 * time.Millisecond}},
		// Hedge-rescued: no deadline at all — the 5 ms hedge leg returns
		// while the stuck primary sleeps its 250 ms out harmlessly.
		{"dsm-mem-hedge", Cell{Algorithm: srmsort.DSM, Backend: srmsort.MemBackend,
			D: 4, Records: 1000, Seed: 603, FailProb: 0.02,
			StuckRead: true, HedgeAfter: 5 * time.Millisecond}},
		// Stuck read AND a later mid-write kill: the abandoned read's
		// background completion must not disturb the resume.
		{"srm-file-kill", Cell{Algorithm: srmsort.SRM, Backend: srmsort.FileBackend,
			D: 4, Records: 1000, Seed: 604, FailProb: 0.02, Kill: true,
			StuckRead: true, OpDeadline: 20 * time.Millisecond}},
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cell := tc.cell
			if cell.Backend == srmsort.FileBackend {
				cell.Dir = t.TempDir()
			}
			start := time.Now()
			res, err := Run(cell)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Minute {
				t.Fatalf("stuck-op cell took %v; the deadline must bound the hang", elapsed)
			}
			t.Logf("attempts=%d killed=%v", res.Attempts, res.Killed)
		})
	}
}
