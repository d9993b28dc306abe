// Checkpoint/resume: the recovery half of the fault-tolerance story.
//
// A checkpointed sort persists a small JSON manifest through the store's
// ManifestStore capability at every point where the sort's state is
// compactly describable: after run formation, and after each completed
// merge pass. The manifest names the surviving runs (block-index tables
// included), the pass and sequence counters, and how many placement draws
// the seeded RNG has consumed — everything needed to re-enter the merge
// loop exactly where the interrupted sort left it, producing output
// byte-identical to an uninterrupted run.
//
// Crash-consistency ordering: a pass's input runs are freed only *after*
// the manifest naming its outputs is durably saved (srm.SortOpts
// AfterPass hook + FileStore's atomic rename). A crash at any instant
// therefore leaves at least one manifest generation whose runs are fully
// intact on the store; anything else resident is an orphan — a partially
// written output run, a torn block, an input awaiting a free — and is
// reclaimed at resume after the chosen generation verifies.
package srmsort

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"srmsort/internal/dsm"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// manifestVersion guards the manifest's JSON schema.
const manifestVersion = 1

// runGen is one checkpoint generation: the merge-phase state at the end
// of a completed pass (pass 0 = run formation).
type runGen struct {
	// Pass is the number of completed merge passes.
	Pass int
	// Seq is the next run sequence number.
	Seq int
	// Draws is the number of placement draws consumed so far; a resumed
	// sort replays this many draws from the seeded RNG before continuing.
	Draws int64
	// Runs are the surviving runs (SRM algorithms) …
	Runs []runio.RunState `json:",omitempty"`
	// … or DSMRuns for the striped baseline.
	DSMRuns []dsm.RunState `json:",omitempty"`
}

// manifest is the persisted checkpoint state of one sort.
type manifest struct {
	Version   int
	Algorithm string
	// Codec is the record codec identity the sort's blocks are encoded
	// under; a resume must run the same codec or it would misread every
	// block. Empty (manifests from before the codec seam) means fixed16.
	Codec      string `json:",omitempty"`
	D, B, M, R int
	Seed       int64
	Formation  int
	// Records is the input size, a cheap guard against resuming with the
	// wrong input.
	Records int
	// InitialRuns preserves the formation count for resumed Stats.
	InitialRuns int
	// InputFrontier is the per-disk block frontier right after the input
	// file was loaded: blocks below it belong to the (never freed) input
	// and are exempt from orphan reclamation.
	InputFrontier []int
	// Cur is the newest generation; Prev the one before it, kept as a
	// repair fallback for the narrow window where Cur's save completed
	// but a block of its runs is unreadable and Prev's inputs have not
	// been freed yet.
	Cur  runGen
	Prev *runGen `json:",omitempty"`
}

// check validates that a manifest belongs to the configuration trying to
// resume from it.
func (man *manifest) check(cfg Config, m, r, nrec int, codecName string) error {
	switch {
	case man.Version != manifestVersion:
		return fmt.Errorf("srmsort: manifest version %d, want %d", man.Version, manifestVersion)
	case man.Algorithm != cfg.Algorithm.String():
		return fmt.Errorf("srmsort: manifest from algorithm %s, config says %s", man.Algorithm, cfg.Algorithm)
	case man.codecName() != codecName:
		return fmt.Errorf("srmsort: manifest records codec %s, config says %s — resume with the codec the sort was started under",
			man.codecName(), codecName)
	case man.D != cfg.D || man.B != cfg.B || man.M != m || man.R != r:
		return fmt.Errorf("srmsort: manifest geometry D=%d B=%d M=%d R=%d, config yields D=%d B=%d M=%d R=%d",
			man.D, man.B, man.M, man.R, cfg.D, cfg.B, m, r)
	case man.Seed != cfg.Seed:
		return fmt.Errorf("srmsort: manifest seed %d, config seed %d", man.Seed, cfg.Seed)
	case man.Formation != int(cfg.RunFormation):
		return fmt.Errorf("srmsort: manifest run formation %d, config %d", man.Formation, int(cfg.RunFormation))
	case nrec > 0 && man.Records != nrec:
		return fmt.Errorf("srmsort: manifest input of %d records, caller supplied %d", man.Records, nrec)
	}
	return nil
}

// codecName resolves the manifest's codec identity; manifests written
// before the codec seam carry none and mean fixed16.
func (man *manifest) codecName() string {
	if man.Codec == "" {
		return "fixed16"
	}
	return man.Codec
}

// checkpointer persists manifest generations through the System, whose
// retry policy covers the manifest calls.
type checkpointer struct {
	sys   *pdisk.System
	store pdisk.Store
	man   manifest
}

// save persists gen as the current generation, demoting the previous one
// to the repair fallback. The store is flushed (FileStore fsyncs) before
// the manifest replaces its predecessor, so a manifest never names runs
// the media does not hold yet. This flush is the only durability point
// Resume relies on: closing or discarding the store adds none.
func (c *checkpointer) save(gen runGen) error {
	if len(c.man.Cur.Runs) > 0 || len(c.man.Cur.DSMRuns) > 0 {
		prev := c.man.Cur
		c.man.Prev = &prev
	}
	c.man.Cur = gen
	data, err := json.Marshal(&c.man)
	if err != nil {
		return err
	}
	if s, ok := c.store.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	return c.sys.SaveManifest(data)
}

// loadManifest fetches and decodes the store's manifest, if any.
func loadManifest(sys *pdisk.System) (*manifest, error) {
	data, present, err := sys.LoadManifest()
	if err != nil || !present {
		return nil, err
	}
	man := new(manifest)
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("srmsort: corrupt checkpoint manifest: %w", err)
	}
	return man, nil
}

// genAddrs returns every block address a generation's runs occupy.
func genAddrs(gen runGen) []pdisk.BlockAddr {
	var out []pdisk.BlockAddr
	for _, st := range gen.Runs {
		run := runio.RunFromState(st)
		for i := 0; i < run.NumBlocks(); i++ {
			out = append(out, run.Addr(i))
		}
	}
	for _, st := range gen.DSMRuns {
		out = append(out, dsm.RunFromState(st).Addrs()...)
	}
	return out
}

// verifyGen reads back every block of the generation's runs through the
// System — on a FileStore that validates each block's checksum, and under
// a retry policy transient faults are absorbed — packing the blocks into
// parallel reads of distinct disks. An error means the generation cannot
// feed a resumed merge. The reads are recovery, not sorting cost: the
// caller resets Stats after.
func verifyGen(sys *pdisk.System, gen runGen) error {
	var op []pdisk.BlockAddr
	used := make([]bool, sys.D())
	flush := func() error {
		if len(op) == 0 {
			return nil
		}
		_, err := sys.ReadBlocks(op)
		op = op[:0]
		clear(used)
		if err != nil {
			return fmt.Errorf("srmsort: checkpointed run block unreadable: %w", err)
		}
		return nil
	}
	for _, addr := range genAddrs(gen) {
		if addr.Disk < 0 || addr.Disk >= len(used) {
			return fmt.Errorf("srmsort: checkpointed run block %v outside D=%d", addr, sys.D())
		}
		if used[addr.Disk] {
			if err := flush(); err != nil {
				return err
			}
		}
		used[addr.Disk] = true
		op = append(op, addr)
	}
	return flush()
}

// chooseGen picks the generation a resume continues from: the newest one
// whose runs all verify. Falling back to Prev is the manifest-directed
// repair path — it can succeed only in the window where Cur was saved but
// the previous pass's runs (Prev) were not yet freed.
func chooseGen(sys *pdisk.System, man *manifest) (runGen, error) {
	errCur := verifyGen(sys, man.Cur)
	if errCur == nil {
		return man.Cur, nil
	}
	if man.Prev != nil {
		if errPrev := verifyGen(sys, *man.Prev); errPrev == nil {
			return *man.Prev, nil
		}
	}
	return runGen{}, fmt.Errorf("srmsort: no intact checkpoint generation to resume from: %w", errCur)
}

// reclaimOrphans frees, in one free batch, every resident block that
// neither the chosen generation's runs nor the input file own: partially
// written output runs, torn blocks, stale inputs a crash interrupted
// mid-free. Stores without block enumeration skip reclamation (they only
// leak space, never correctness).
func reclaimOrphans(sys *pdisk.System, store pdisk.Store, man *manifest, gen runGen) error {
	bl, ok := store.(pdisk.BlockLister)
	if !ok {
		return nil
	}
	keep := make(map[pdisk.BlockAddr]bool)
	for _, addr := range genAddrs(gen) {
		keep[addr] = true
	}
	var orphans []pdisk.BlockAddr
	for _, addr := range bl.Blocks() {
		if keep[addr] {
			continue
		}
		if addr.Disk < len(man.InputFrontier) && addr.Index < man.InputFrontier[addr.Disk] {
			continue // input-file territory
		}
		orphans = append(orphans, addr)
	}
	if err := sys.FreeBlocks(orphans...); err != nil && !errors.Is(err, pdisk.ErrAbsent) {
		return fmt.Errorf("srmsort: reclaiming orphan blocks: %w", err)
	}
	return nil
}

// wipeStore clears every resident block, in one free batch, and the
// manifest — the reset before a sort restarts from scratch over a store
// an earlier attempt dirtied without ever reaching its first checkpoint.
func wipeStore(sys *pdisk.System, store pdisk.Store) error {
	if bl, ok := store.(pdisk.BlockLister); ok {
		if err := sys.FreeBlocks(bl.Blocks()...); err != nil && !errors.Is(err, pdisk.ErrAbsent) {
			return err
		}
	}
	return sys.ClearManifest()
}

// storeFrontiers snapshots the per-disk allocation frontier — called
// right after the input file is loaded, so the manifest can exempt input
// blocks from orphan reclamation.
func storeFrontiers(sys *pdisk.System) ([]int, error) {
	out := make([]int, sys.D())
	for i := range out {
		n, err := sys.Frontier(i)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// replayedPlacement rebuilds the run-placement source exactly as the
// interrupted sort left it: the deterministic variant is stateless, and
// the randomized one replays the recorded number of draws from the seed.
func replayedPlacement(cfg Config, draws int64) runio.Placement {
	if cfg.Algorithm == SRMDeterministic {
		return runio.StaggeredPlacement{D: cfg.D}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := int64(0); i < draws; i++ {
		rng.Intn(cfg.D)
	}
	return &runio.RandomPlacement{D: cfg.D, Rng: rng}
}

// runStates exports a run slice for the manifest.
func runStates(runs []*runio.Run) []runio.RunState {
	out := make([]runio.RunState, len(runs))
	for i, r := range runs {
		out[i] = r.State()
	}
	return out
}

// dsmRunStates is runStates for the striped baseline.
func dsmRunStates(runs []*dsm.Run) []dsm.RunState {
	out := make([]dsm.RunState, len(runs))
	for i, r := range runs {
		out[i] = r.State()
	}
	return out
}

// resumeMerge re-enters the merge loop from a verified manifest
// generation and returns the final-run iterator, exactly like
// runAlgorithm does for a fresh sort. Completed passes are not redone:
// stats counts only the work performed now.
func resumeMerge[R record.KernelRecord](sys *pdisk.System, store pdisk.Store, man *manifest, cfg Config, r int, stats *Stats, tr *progressTracker) (emitter[R], error) {
	gen, err := chooseGen(sys, man)
	if err != nil {
		return nil, err
	}
	if err := reclaimOrphans(sys, store, man, gen); err != nil {
		return nil, err
	}
	stats.InitialRuns = man.InitialRuns
	runsLeft := len(gen.Runs) + len(gen.DSMRuns)
	tr.formed(man.InitialRuns, runsLeft, r, gen.Pass)
	sys.ResetStats() // verification reads are recovery, not sorting cost

	if _, ok := store.(pdisk.ManifestStore); !ok {
		return nil, fmt.Errorf("srmsort: store cannot persist a checkpoint manifest")
	}
	cp := &checkpointer{sys: sys, store: store, man: *man}
	cp.man.Cur = gen
	cp.man.Prev = nil

	if runsLeft == 0 {
		return nil, fmt.Errorf("srmsort: manifest holds no runs")
	}
	if cfg.Algorithm == DSM {
		runs := make([]*dsm.Run, len(gen.DSMRuns))
		for i, st := range gen.DSMRuns {
			runs[i] = dsm.RunFromState(st)
		}
		return mergeDSM[R](sys, runs, r, gen.Seq, cfg, func(pass int, survivors []*dsm.Run, seq int) error {
			if err := cp.save(runGen{Pass: gen.Pass + pass, Seq: seq, DSMRuns: dsmRunStates(survivors)}); err != nil {
				return err
			}
			tr.pass(gen.Pass, pass, len(survivors))
			return nil
		}, stats)
	}

	// SRM family.
	runs := make([]*runio.Run, len(gen.Runs))
	for i, st := range gen.Runs {
		runs[i] = runio.RunFromState(st)
	}
	counting := &runio.CountingPlacement{Inner: replayedPlacement(cfg, gen.Draws)}
	return mergeSRM[R](sys, runs, r, counting, gen.Seq, cfg, func(pass int, survivors []*runio.Run, seq int) error {
		if err := cp.save(runGen{
			Pass:  gen.Pass + pass,
			Seq:   seq,
			Draws: gen.Draws + counting.Draws(),
			Runs:  runStates(survivors),
		}); err != nil {
			return err
		}
		tr.pass(gen.Pass, pass, len(survivors))
		return nil
	}, stats)
}

// Scrub opens the FileStore under cfg.Dir and audits every resident
// block's checksum without running a sort — the offline integrity check
// behind `srmsort -scrub`. The report lists corrupt blocks; a following
// Resume reclaims any that no checkpoint generation needs.
func Scrub(cfg Config) (pdisk.ScrubReport, error) {
	if cfg.backend() != FileBackend {
		return pdisk.ScrubReport{}, fmt.Errorf("srmsort: scrub requires the file backend")
	}
	if cfg.Dir == "" {
		return pdisk.ScrubReport{}, fmt.Errorf("srmsort: scrub requires Dir")
	}
	codec, err := cfg.codec()
	if err != nil {
		return pdisk.ScrubReport{}, err
	}
	fs, err := pdisk.NewFileStoreCodec(cfg.Dir, cfg.B, cfg.D, codec)
	if err != nil {
		return pdisk.ScrubReport{}, err
	}
	defer fs.Close()
	return fs.Scrub()
}
