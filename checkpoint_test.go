package srmsort

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"srmsort/internal/pdisk"
)

// ckptAlgorithms are the algorithms supporting Checkpoint (PSV is
// excluded by construction).
var ckptAlgorithms = []Algorithm{SRM, SRMDeterministic, DSM}

// noSleep makes retry backoff instant in tests.
func noSleep(policy pdisk.RetryPolicy) *pdisk.RetryPolicy {
	policy.Sleep = func(time.Duration) {}
	return &policy
}

func TestCheckpointFaultFreeEquivalence(t *testing.T) {
	in := randomRecords(3000, 11)
	for _, alg := range ckptAlgorithms {
		for _, backend := range []Backend{MemBackend, FileBackend} {
			t.Run(fmt.Sprintf("%v-%s", alg, backend), func(t *testing.T) {
				cfg := Config{D: 4, B: 8, K: 3, Algorithm: alg, Seed: 5, Backend: backend}
				plain, plainStats, err := Sort(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Checkpoint = true
				ckpt, ckptStats, err := Sort(in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(plain) != len(ckpt) {
					t.Fatalf("lengths differ: %d vs %d", len(plain), len(ckpt))
				}
				for i := range plain {
					if plain[i] != ckpt[i] {
						t.Fatalf("record %d differs: %v vs %v", i, plain[i], ckpt[i])
					}
				}
				// Checkpointing must not change what the sort does — only
				// persist what it has done.
				if plainStats.MergePasses != ckptStats.MergePasses ||
					plainStats.InitialRuns != ckptStats.InitialRuns ||
					plainStats.TotalOps() != ckptStats.TotalOps() {
					t.Fatalf("stats diverge: plain %+v vs checkpointed %+v", plainStats, ckptStats)
				}
			})
		}
	}
}

// countWrites measures the exact number of block-level store writes a
// checkpointed sort issues (Stats counts parallel operations, which move
// up to D blocks each — the fault schedule needs store-level counts).
func countWrites(t *testing.T, in []Record, cfg Config) int64 {
	t.Helper()
	fault := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
	cfg.Store = fault
	if _, _, err := Sort(in, cfg); err != nil {
		t.Fatal(err)
	}
	n := fault.OpCount("write")
	fault.Close()
	return n
}

// killAndResume runs a checkpointed sort over a FaultStore armed to tear
// the killAt-th write (simulating the process dying mid-write), then
// resumes over the same store without faults. It returns the resumed
// output and stats.
func killAndResume(t *testing.T, in []Record, cfg Config, store pdisk.Store, killAt int64) ([]Record, Stats) {
	t.Helper()
	fault := pdisk.NewFaultStore(store, pdisk.FaultConfig{TornWriteAt: killAt})
	killCfg := cfg
	killCfg.Store = fault
	_, _, err := Sort(in, killCfg)
	if err == nil {
		t.Fatalf("sort survived a kill at write %d", killAt)
	}
	var term *pdisk.TerminalError
	if !errors.As(err, &term) {
		t.Fatalf("kill surfaced as %v (%T), want *pdisk.TerminalError", err, err)
	}
	resumeCfg := cfg
	resumeCfg.Store = store // faults lifted: the "next process" sees clean disks
	out, stats, err := Resume(in, resumeCfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return out, stats
}

func TestKillAndResumeByteIdentical(t *testing.T) {
	in := randomRecords(2500, 23)
	for _, alg := range ckptAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := Config{D: 4, B: 8, K: 3, Algorithm: alg, Seed: 9, Checkpoint: true}
			want, wantStats, err := Sort(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if wantStats.MergePasses < 2 {
				t.Fatalf("geometry yields %d merge passes; test needs >= 2", wantStats.MergePasses)
			}
			totalWrites := countWrites(t, in, cfg)
			// Kill at a spread of points: during loading, mid-sort, near
			// the very end.
			for _, killAt := range []int64{3, totalWrites / 3, totalWrites - 2} {
				store := pdisk.NewMemStore()
				got, _ := killAndResume(t, in, cfg, store, killAt)
				if len(got) != len(want) {
					t.Fatalf("killAt=%d: %d records, want %d", killAt, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("killAt=%d: record %d = %v, want %v", killAt, i, got[i], want[i])
					}
				}
				store.Close()
			}
		})
	}
}

func TestKillAndResumeAcrossExecutionModes(t *testing.T) {
	// The checkpoint hooks thread through every execution mode: serial,
	// overlapped I/O, parallel workers, and both combined. A kill in any
	// of them must resume to the same bytes.
	in := randomRecords(2200, 29)
	modes := []struct {
		name    string
		async   bool
		workers int
	}{
		{"serial", false, 0},
		{"async", true, 0},
		{"workers", false, 4},
		{"async-workers", true, 4},
	}
	base := Config{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 37, Checkpoint: true}
	want, _, err := Sort(in, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := base
			cfg.Async = mode.async
			cfg.Workers = mode.workers
			killAt := countWrites(t, in, cfg) / 2
			store := pdisk.NewMemStore()
			defer store.Close()
			got, _ := killAndResume(t, in, cfg, store, killAt)
			if len(got) != len(want) {
				t.Fatalf("%d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestResumeSkipsCompletedPasses(t *testing.T) {
	in := randomRecords(2500, 31)
	cfg := Config{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 13, Checkpoint: true}
	want, wantStats, err := Sort(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.MergePasses < 2 {
		t.Fatalf("geometry yields %d merge passes; test needs >= 2", wantStats.MergePasses)
	}
	// Kill two writes before the end: the final pass is underway, every
	// earlier pass is checkpointed. The resumed sort must redo only the
	// final pass — its merge work is a strict fraction of the full run's.
	totalWrites := countWrites(t, in, cfg)
	store := pdisk.NewMemStore()
	defer store.Close()
	got, resumedStats := killAndResume(t, in, cfg, store, totalWrites-2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after resume", i)
		}
	}
	if resumedStats.MergePasses >= wantStats.MergePasses {
		t.Fatalf("resume redid completed passes: %d merge passes, full run had %d",
			resumedStats.MergePasses, wantStats.MergePasses)
	}
	if resumedStats.RunFormationWrites != 0 {
		t.Fatalf("resume redid run formation: %d writes", resumedStats.RunFormationWrites)
	}
	if resumedStats.MergeWrites >= wantStats.MergeWrites {
		t.Fatalf("resume redid merge work: %d writes, full run had %d",
			resumedStats.MergeWrites, wantStats.MergeWrites)
	}
}

func TestResumeOnFileBackendAcrossReopen(t *testing.T) {
	in := randomRecords(1500, 41)
	dir := t.TempDir()
	cfg := Config{D: 3, B: 8, K: 3, Algorithm: SRM, Seed: 17, Checkpoint: true,
		Backend: FileBackend, Dir: dir}
	want, _, err := Sort(in, Config{D: 3, B: 8, K: 3, Algorithm: SRM, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-merge through a fault-injected FileStore, then resume with
	// a plain config pointing at the directory — a genuinely different
	// "process" reopening the on-disk state.
	fs, err := pdisk.NewFileStore(dir, cfg.B, cfg.D)
	if err != nil {
		t.Fatal(err)
	}
	killAt := countWrites(t, in, cfg) * 2 / 3
	fault := pdisk.NewFaultStore(fs, pdisk.FaultConfig{TornWriteAt: killAt})
	killCfg := cfg
	killCfg.Store = fault
	if _, _, err := Sort(in, killCfg); err == nil {
		t.Fatal("sort survived the kill")
	}
	fs.Close() // crash: handles gone, files remain

	got, _, err := Resume(in, cfg)
	if err != nil {
		t.Fatalf("resume over reopened dir: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after cross-process resume", i)
		}
	}
	// The recovery state is cleaned up after success.
	fs2, err := pdisk.NewFileStore(dir, cfg.B, cfg.D)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, ok, _ := fs2.LoadManifest(); ok {
		t.Fatal("manifest survived a completed resume")
	}
}

func TestResumeWithoutManifestRestartsFromScratch(t *testing.T) {
	in := randomRecords(800, 51)
	cfg := Config{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 19, Checkpoint: true}
	want, _, err := Sort(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Resume over a store that has leftover blocks but no manifest: it
	// must wipe and restart, not trip over the junk.
	store := pdisk.NewMemStore()
	defer store.Close()
	if err := store.WriteBlock(pdisk.BlockAddr{Disk: 0, Index: 0}, pdisk.StoredBlock{}); err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	got, stats, err := Resume(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InitialRuns == 0 {
		t.Fatal("restart-from-scratch did no work")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after scratch restart", i)
		}
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	in := randomRecords(1200, 61)
	cfg := Config{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 21, Checkpoint: true}
	store := pdisk.NewMemStore()
	defer store.Close()
	// Kill near the end so a manifest certainly exists on the store.
	fault := pdisk.NewFaultStore(store, pdisk.FaultConfig{
		TornWriteAt: countWrites(t, in, cfg) - 2})
	killCfg := cfg
	killCfg.Store = fault
	if _, _, err := Sort(in, killCfg); err == nil {
		t.Fatal("sort survived the kill")
	}
	for _, bad := range []Config{
		{D: 4, B: 8, K: 3, Algorithm: DSM, Checkpoint: true},           // different algorithm
		{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 99, Checkpoint: true}, // different seed
		{D: 4, B: 4, K: 3, Algorithm: SRM, Seed: 21, Checkpoint: true}, // different geometry
	} {
		bad.Store = store
		if _, _, err := Resume(in, bad); err == nil {
			t.Fatalf("resume accepted a manifest from a different configuration: %+v", bad)
		}
	}
}

// TestResumeVarRejectsMismatchedCodec: the checkpoint manifest records
// the codec identity, so resuming a varlen sort under a different codec
// — flate on, or back to fixed16 — must fail fast with a codec
// diagnosis, while the recorded codec resumes to the fault-free bytes.
func TestResumeVarRejectsMismatchedCodec(t *testing.T) {
	in := benchVarRecords(900, 67)
	cfg := Config{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 27, Checkpoint: true, Codec: "varlen"}

	// Fault-free probe: the reference output and the total write count.
	probe := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
	probeCfg := cfg
	probeCfg.Store = probe
	want, _, err := SortVar(in, probeCfg)
	if err != nil {
		t.Fatal(err)
	}
	writes := probe.OpCount("write")
	probe.Close()

	store := pdisk.NewMemStore()
	defer store.Close()
	// Kill near the end so a manifest certainly exists on the store.
	fault := pdisk.NewFaultStore(store, pdisk.FaultConfig{TornWriteAt: writes - 2})
	killCfg := cfg
	killCfg.Store = fault
	if _, _, err := SortVar(in, killCfg); err == nil {
		t.Fatal("sort survived the kill")
	}

	flate := cfg
	flate.Store = store
	flate.Codec = "varlen+flate"
	if _, _, err := ResumeVar(in, flate); err == nil || !strings.Contains(err.Error(), "codec varlen") {
		t.Fatalf("resume under varlen+flate on a varlen checkpoint: err = %v, want codec mismatch", err)
	}
	fixed := Config{D: 4, B: 8, K: 3, Algorithm: SRM, Seed: 27, Checkpoint: true, Store: store}
	if _, _, err := Resume(randomRecords(900, 67), fixed); err == nil || !strings.Contains(err.Error(), "codec varlen") {
		t.Fatalf("resume under fixed16 on a varlen checkpoint: err = %v, want codec mismatch", err)
	}

	good := cfg
	good.Store = store
	out, _, err := ResumeVar(in, good)
	if err != nil {
		t.Fatalf("resume under the recorded codec: %v", err)
	}
	if len(out) != len(want) {
		t.Fatalf("resumed %d records, want %d", len(out), len(want))
	}
	for i := range out {
		if !bytes.Equal(out[i].Key, want[i].Key) || !bytes.Equal(out[i].Payload, want[i].Payload) {
			t.Fatalf("record %d differs from the fault-free run", i)
		}
	}
}

func TestCheckpointRejectsPSV(t *testing.T) {
	in := randomRecords(600, 71)
	_, _, err := Sort(in, Config{D: 4, B: 16, K: 4, Algorithm: PSV, Checkpoint: true})
	if err == nil {
		t.Fatal("PSV accepted Checkpoint")
	}
}

func TestSortWithRetryAbsorbsTransientFaults(t *testing.T) {
	in := randomRecords(1500, 81)
	want, _, err := Sort(in, Config{D: 4, B: 8, K: 3, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	// 1% transient failures on reads and writes: with 4 attempts the sort
	// should sail through; without retries it would abort almost surely.
	store := pdisk.NewFaultStore(pdisk.NewMemStore(),
		pdisk.FaultConfig{Seed: 7, ReadFailProb: 0.01, WriteFailProb: 0.01})
	got, _, err := Sort(in, Config{D: 4, B: 8, K: 3, Seed: 25, Store: store,
		Retry: noSleep(pdisk.DefaultRetryPolicy())})
	if err != nil {
		t.Fatalf("retried sort failed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs under fault injection", i)
		}
	}
}

func TestScrubHelper(t *testing.T) {
	dir := t.TempDir()
	fs, err := pdisk.NewFileStore(dir, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteBlock(pdisk.BlockAddr{Disk: 0, Index: 0}, pdisk.StoredBlock{}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteBlockTorn(pdisk.BlockAddr{Disk: 1, Index: 0}, pdisk.StoredBlock{}); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	rep, err := Scrub(Config{D: 3, B: 8, Backend: FileBackend, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 2 || len(rep.Corrupt) != 1 {
		t.Fatalf("Scrub = %+v, want 2 blocks with 1 corrupt", rep)
	}
	if _, err := Scrub(Config{D: 3, B: 8}); err == nil {
		t.Fatal("Scrub accepted a memory backend")
	}
}
