package srmsort

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"srmsort/internal/pdisk"
)

// ckptAlgorithms are the algorithms Checkpoint is tested under: all four.
var ckptAlgorithms = []Algorithm{SRM, SRMDeterministic, DSM, PSV}

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
	// The checkpoint hooks thread through every execution mode of SRM, DSM
	// and PSV: serial, overlapped I/O, parallel workers, and both combined.
	// A kill in any of them must resume to the same bytes.
	in := randomRecords(2200, 29)
	modes := []struct {
		name    string
		alg     Algorithm
		async   bool
		workers int
	}{
		{"serial", SRM, false, 0},
		{"async", SRM, true, 0},
		{"workers", SRM, false, 4},
		{"async-workers", SRM, true, 4},
		{"dsm-serial", DSM, false, 0},
		{"dsm-async", DSM, true, 0},
		{"dsm-workers", DSM, false, 4},
		{"dsm-async-workers", DSM, true, 4},
		{"psv-serial", PSV, false, 0},
		{"psv-async", PSV, true, 0},
		{"psv-workers", PSV, false, 4},
		{"psv-async-workers", PSV, true, 4},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			base := Config{D: 4, B: 8, K: 3, Algorithm: mode.alg, Seed: 37, Checkpoint: true}
			want, _, err := Sort(in, base)
			if err != nil {
				t.Fatal(err)
			}
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

	// A version-1 DSM manifest kept its runs under DSMRuns, one address
	// list per logical block: Resume refuses it by its version instead
	// of finding no runs in it.
	dsmCfg := Config{D: 4, B: 8, K: 3, Algorithm: DSM, Checkpoint: true}
	r, m, err := dsmCfg.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	frontier := make([]int, dsmCfg.D)
	var stripes [][]pdisk.BlockAddr
	for blk := 0; blk < (len(in)+dsmCfg.B-1)/dsmCfg.B; blk++ {
		if blk%dsmCfg.D == 0 {
			stripes = append(stripes, nil)
		}
		stripes[len(stripes)-1] = append(stripes[len(stripes)-1], pdisk.BlockAddr{Disk: blk % dsmCfg.D, Index: blk / dsmCfg.D})
		frontier[blk%dsmCfg.D]++
	}
	for _, s := range stripes {
		for i := range s {
			s[i].Index += frontier[s[i].Disk] // past the input's blocks
		}
	}
	v1, err := json.Marshal(map[string]any{
		"Version": 1, "Algorithm": "DSM", "Codec": "fixed16", "D": dsmCfg.D, "B": dsmCfg.B, "M": m, "R": r,
		"Seed": 0, "Formation": 0, "Records": len(in), "InitialRuns": 1, "InputFrontier": frontier,
		"Cur": map[string]any{"Pass": 0, "Seq": 1, "Draws": 0,
			"DSMRuns": []map[string]any{{"ID": 0, "Records": len(in), "Stripes": stripes}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	old := pdisk.NewMemStore()
	defer old.Close()
	if err := old.SaveManifest(v1); err != nil {
		t.Fatal(err)
	}
	dsmCfg.Store = old
	if _, _, err := Resume(in, dsmCfg); err == nil || !strings.Contains(err.Error(), "manifest version 1, want 2") {
		t.Fatalf("resume from a version-1 DSM manifest: %v, want a version refusal", err)
	}

	// A manifest whose generation names no runs is refused, not resumed
	// to an empty result.
	noRuns, err := json.Marshal(map[string]any{
		"Version": 2, "Algorithm": "DSM", "Codec": "fixed16", "D": dsmCfg.D, "B": dsmCfg.B, "M": m, "R": r,
		"Records": len(in), "InitialRuns": 1, "InputFrontier": frontier, "Cur": map[string]any{"Pass": 1, "Seq": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	empty := pdisk.NewMemStore()
	defer empty.Close()
	if err := empty.SaveManifest(noRuns); err != nil {
		t.Fatal(err)
	}
	dsmCfg.Store = empty
	if _, _, err := Resume(in, dsmCfg); err == nil || !strings.Contains(err.Error(), "manifest holds no runs") {
		t.Fatalf("resume from a manifest without runs: %v, want a refusal", err)
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

// Checkpoint control traffic — the manifest saves, loads and clears and
// the frontier probes — is retried under Config.Retry like block I/O: a
// checkpointed sort and a resume over a store whose control calls fail
// transiently both come out byte-identical to the fault-free sort.
func TestCheckpointControlOpsRetried(t *testing.T) {
	in := randomRecords(2500, 31)
	cfg := Config{D: 4, B: 8, K: 3, Seed: 9, Checkpoint: true}
	want, _, err := Sort(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flaky := func(inner pdisk.Store) *pdisk.FaultStore {
		return pdisk.NewFaultStore(inner, pdisk.FaultConfig{Seed: 5, ManifestFailProb: 0.3, FrontierFailProb: 0.3})
	}
	same := func(what string, got []Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	// The faults really fire: without retries the sort fails.
	bare := cfg
	bare.Store = flaky(pdisk.NewMemStore())
	if _, _, err := Sort(in, bare); !errors.Is(err, pdisk.ErrInjected) {
		t.Fatalf("unretried sort over flaky control calls: %v, want ErrInjected", err)
	}
	retried := cfg
	retried.Retry = noSleep(pdisk.RetryPolicy{MaxAttempts: 10})
	retried.Store = flaky(pdisk.NewMemStore())
	got, _, err := Sort(in, retried)
	if err != nil {
		t.Fatalf("retried checkpointed sort: %v", err)
	}
	same("sort", got)

	// Kill a sort mid-way, then resume over flaky control calls.
	store := pdisk.NewMemStore()
	killCfg := cfg
	killCfg.Store = pdisk.NewFaultStore(store, pdisk.FaultConfig{TornWriteAt: countWrites(t, in, cfg) / 2})
	if _, _, err := Sort(in, killCfg); err == nil {
		t.Fatal("sort survived its kill")
	}
	resumeCfg := retried
	resumeCfg.Store = flaky(store)
	got, _, err = Resume(in, resumeCfg)
	if err != nil {
		t.Fatalf("retried resume: %v", err)
	}
	same("resume", got)
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

// syncOrderStore records, in order, when a checkpointed sort's block
// writes complete, when it starts a store flush and when it saves a
// manifest. A write is logged on completion, so one still in flight
// when a Sync starts shows up after that Sync.
type syncOrderStore struct {
	*pdisk.FileStore
	mu     sync.Mutex
	events []string
}

func (s *syncOrderStore) note(ev string) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *syncOrderStore) WriteBlock(addr pdisk.BlockAddr, b pdisk.StoredBlock) error {
	err := s.FileStore.WriteBlock(addr, b)
	s.note("write")
	return err
}

func (s *syncOrderStore) Sync() error {
	s.note("sync")
	return s.FileStore.Sync()
}

func (s *syncOrderStore) SaveManifest(data []byte) error {
	s.note("manifest")
	return s.FileStore.SaveManifest(data)
}

// TestCheckpointSyncsBeforeManifest pins the one durability point Resume
// relies on: every manifest is saved after a store Sync that began once
// the last block write of its pass had completed, so a manifest never
// names blocks the media may not hold. Teardown no longer fsyncs scratch
// disks, which makes this Sync the only flush a checkpointed sort gets.
// It also checks that a non-checkpointed file sort in a user directory
// discards its disk files.
func TestCheckpointSyncsBeforeManifest(t *testing.T) {
	in := randomRecords(3000, 23)
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			fs, err := pdisk.NewFileStore(t.TempDir(), 8, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Remove()
			rec := &syncOrderStore{FileStore: fs}
			cfg := Config{D: 4, B: 8, K: 3, Seed: 5, Checkpoint: true, Async: async, Store: rec}
			_, stats, err := Sort(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			manifests, synced, unsynced := 0, false, 0
			for i, ev := range rec.events {
				switch ev {
				case "write":
					unsynced++
				case "sync":
					synced, unsynced = true, 0
				case "manifest":
					manifests++
					if !synced || unsynced > 0 {
						t.Fatalf("manifest %d (event %d) saved with %d block writes after the last Sync (synced before: %v)",
							manifests, i, unsynced, synced)
					}
				}
			}
			if want := stats.MergePasses + 1; manifests < want {
				t.Fatalf("%d manifests saved, want at least %d (formation + %d passes)", manifests, want, stats.MergePasses)
			}
		})
	}

	dir := t.TempDir()
	if _, _, err := Sort(in, Config{D: 4, B: 8, K: 3, Seed: 5, Backend: FileBackend, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("non-checkpointed file sort left %s in its directory", e.Name())
	}
}

// manifestLog is a MemStore that keeps a copy of every manifest saved
// through it.
type manifestLog struct {
	*pdisk.MemStore
	mu    sync.Mutex
	saved [][]byte
}

func (s *manifestLog) SaveManifest(data []byte) error {
	s.mu.Lock()
	s.saved = append(s.saved, append([]byte(nil), data...))
	s.mu.Unlock()
	return s.MemStore.SaveManifest(data)
}

// gens decodes the newest generation of each manifest saved from the
// i-th on.
func (s *manifestLog) gens(t *testing.T, i int) []runGen {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []runGen
	for _, data := range s.saved[i:] {
		var man manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		out = append(out, man.Cur)
	}
	return out
}

// TestResumeReplaysPlacement pins runPlacement's promise: a resumed SRM
// sort replays the placement draws its manifest records, so the runs it
// writes start on exactly the disks the uninterrupted sort's did. Every
// generation a resume saves after a kill must equal the uninterrupted
// sort's generation of the same pass in Seq, Draws and every run's
// starting disk.
func TestResumeReplaysPlacement(t *testing.T) {
	in := randomRecords(20_000, 47)
	cfg := Config{D: 4, B: 4, K: 1, Algorithm: SRM, Seed: 3, Checkpoint: true}
	whole := &manifestLog{MemStore: pdisk.NewMemStore()}
	defer whole.Close()
	wholeCfg := cfg
	wholeCfg.Store = whole
	want, stats, err := Sort(in, wholeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MergePasses < 4 {
		t.Fatalf("geometry yields %d merge passes; the test needs >= 4", stats.MergePasses)
	}
	byPass := make(map[int]runGen)
	for _, g := range whole.gens(t, 0) {
		byPass[g.Pass] = g
	}
	writes := countWrites(t, in, cfg)
	for _, killAt := range []int64{writes / 3, writes / 2, writes * 2 / 3, writes * 5 / 6} {
		store := &manifestLog{MemStore: pdisk.NewMemStore()}
		killCfg := cfg
		killCfg.Store = pdisk.NewFaultStore(store, pdisk.FaultConfig{TornWriteAt: killAt})
		if _, _, err := Sort(in, killCfg); err == nil {
			t.Fatalf("killAt=%d: sort survived its kill", killAt)
		}
		before := len(store.saved)
		resumeCfg := cfg
		resumeCfg.Store = store
		got, _, err := Resume(in, resumeCfg)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", killAt, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("killAt=%d: record %d = %v, want %v", killAt, i, got[i], want[i])
			}
		}
		resumed := store.gens(t, before)
		if len(resumed) == 0 {
			t.Fatalf("killAt=%d: the resume saved no generation", killAt)
		}
		for _, g := range resumed {
			w, ok := byPass[g.Pass]
			if !ok || g.Seq != w.Seq || g.Draws != w.Draws || len(g.Runs) != len(w.Runs) {
				t.Fatalf("killAt=%d: resumed pass %d saved Seq %d, Draws %d, %d runs; uninterrupted sort: Seq %d, Draws %d, %d runs",
					killAt, g.Pass, g.Seq, g.Draws, len(g.Runs), w.Seq, w.Draws, len(w.Runs))
			}
			for i, st := range g.Runs {
				if st.ID != w.Runs[i].ID || st.StartDisk != w.Runs[i].StartDisk || st.Records != w.Runs[i].Records {
					t.Fatalf("killAt=%d: pass %d run %d: ID %d on disk %d, %d records; uninterrupted: ID %d on disk %d, %d records",
						killAt, g.Pass, i, st.ID, st.StartDisk, st.Records, w.Runs[i].ID, w.Runs[i].StartDisk, w.Runs[i].Records)
				}
			}
		}
		store.Close()
	}
}
