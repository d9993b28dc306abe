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

	"srmsort/internal/pdisk"
	"srmsort/internal/runio"
)

// manifestVersion guards the manifest's JSON schema. Version 2 saves DSM's
// runs as runio.RunStates in runGen.Runs, like every other algorithm's;
// version 1 kept them apart, so its DSM generations do not resume.
const manifestVersion = 2

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
	// Runs are the surviving runs.
	Runs []runio.RunState `json:",omitempty"`
}

// manifest is the persisted checkpoint state of one sort.
type manifest struct {
	Version   int
	Algorithm string
	// Codec is the record codec identity the sort's blocks are encoded
	// under; a resume must run the same codec or it would misread every
	// block.
	Codec      string
	D, B, M, R int
	Seed       int64
	Formation  int
	// Records is the input size, a cheap guard against resuming with the
	// wrong input.
	Records int
	// InitialRuns preserves the formation count for resumed Stats.
	InitialRuns int
	// InputFrontier is the per-disk block frontier right after the input
	// file was loaded: blocks below it belong to the input and are exempt
	// from orphan reclamation. Run formation frees the input as it reads
	// it, before generation 0 is saved, so no block of a checkpointed
	// sort's input is resident when a manifest exists; the frontier is
	// still recorded, keeping the manifest's bytes what they were.
	InputFrontier []int
	// Cur is the newest generation; Prev the one before it, kept as a
	// repair fallback for the narrow window where Cur's save completed
	// but a block of its runs is unreadable and Prev's inputs have not
	// been freed yet.
	Cur  runGen
	Prev *runGen `json:",omitempty"`
}

// check validates that a manifest belongs to the configuration trying to
// resume from it. The version comes first: only version 2 is sure to
// record its codec.
func (man *manifest) check(cfg Config, m, r, nrec int, codecName string) error {
	switch {
	case man.Version != manifestVersion:
		return fmt.Errorf("srmsort: manifest version %d, want %d", man.Version, manifestVersion)
	case man.Algorithm != cfg.Algorithm.String():
		return fmt.Errorf("srmsort: manifest from algorithm %s, config says %s", man.Algorithm, cfg.Algorithm)
	case man.Codec != codecName:
		return fmt.Errorf("srmsort: manifest records codec %s, config says %s — resume with the codec the sort was started under",
			man.Codec, codecName)
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

// saveManifest persists man, whose Cur is the newest generation. The
// System flushes the store first (FileStore fsyncs), so a manifest never
// names runs the media does not hold yet; that flush is the only
// durability point Resume relies on.
func saveManifest(sys *pdisk.System, man *manifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return err
	}
	return sys.SaveManifest(data)
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
		out = append(out, runio.RunFromState(st).Addrs()...)
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
// mid-free. The input file's exemption covers no resident block of a
// sort whose formation freed its input (see manifest.InputFrontier).
// Stores without block enumeration skip reclamation (they only leak
// space, never correctness).
func reclaimOrphans(sys *pdisk.System, man *manifest, gen runGen) error {
	keep := make(map[pdisk.BlockAddr]bool)
	for _, addr := range genAddrs(gen) {
		keep[addr] = true
	}
	var orphans []pdisk.BlockAddr
	for _, addr := range sys.Blocks() {
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
func wipeStore(sys *pdisk.System) error {
	if err := sys.FreeBlocks(sys.Blocks()...); err != nil && !errors.Is(err, pdisk.ErrAbsent) {
		return err
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

// runPlacement returns the source of the sort's starting disks after
// draws of them: DSM starts every run on disk 0 (disk striping) and the
// deterministic variant and PSV stagger them, statelessly, while SRM draws
// them from the seeded RNG — a resumed sort replays the recorded number of
// draws, so it continues exactly where the interrupted sort left off.
func runPlacement(cfg Config, draws int64) runio.Placement {
	switch cfg.Algorithm {
	case DSM:
		return runio.FixedPlacement{Disk: 0}
	case SRMDeterministic, PSV:
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
