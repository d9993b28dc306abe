// Command srmsort externally sorts a synthetic record file on a simulated
// D-disk parallel I/O system and reports the full I/O statistics, in the
// cost unit of Barve–Grove–Vitter (SPAA 1996): parallel I/O operations.
//
// Usage:
//
//	srmsort -n 1000000 -d 8 -b 64 -k 4 [-alg srm|srm-det|dsm|psv] [-workers N]
//	        [-cores N] [-async] [-input random|sorted|reverse|dups] [-runform load|rs]
//	        [-model none|1996|modern] [-backend mem|file] [-dir DIR]
//	        [-codec fixed16|varlen|varlen+flate]
//	        [-seed N] [-verify] [-cpuprofile FILE] [-memprofile FILE]
//	        [-retries N] [-op-deadline DUR] [-hedge-after DUR] [-v]
//	        [-checkpoint] [-resume] [-scrub]
//
// -codec selects the record codec: fixed16 (the default 16-byte records),
// varlen (variable-length keys and payloads) or varlen+flate (varlen with
// per-block compression). A checkpoint records its codec, and -resume or
// -scrub under a different -codec fails fast with a one-line diagnosis
// naming the codec the sort was started with.
//
// Fault tolerance: -retries N re-attempts transient I/O failures up to N
// times per operation under deterministic exponential backoff;
// -op-deadline bounds every block I/O (a stuck transfer is abandoned,
// classified retryable, and charged to the disk's error budget);
// -hedge-after re-issues straggling reads and takes the first result; -v
// prints the resulting per-disk latency statistics (EWMA and windowed
// p99) after the sort;
// -checkpoint persists a recovery manifest after run formation and every
// merge pass (with -backend file -dir DIR the disk files survive the
// process, so a killed sort can be continued); -resume continues such an
// interrupted sort from its last completed pass; -scrub audits every
// block checksum under -dir and exits non-zero if corruption is found,
// without sorting anything. A failed sort exits with a one-line
// diagnosis naming the operation, disk, block and attempt count.
//
// The profile flags capture pprof data for the sort itself: -cpuprofile
// starts CPU profiling immediately before the sort and stops it right
// after (input generation and output verification are outside the
// window); -memprofile writes an allocation profile taken right after the
// sort completes. Inspect either with `go tool pprof`.
//
// Example — compare SRM and DSM on the same input:
//
//	srmsort -n 2000000 -d 16 -b 64 -k 4 -alg srm -model 1996
//	srmsort -n 2000000 -d 16 -b 64 -k 4 -alg dsm -model 1996
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
)

func main() {
	var (
		n        = flag.Int("n", 1_000_000, "number of records to sort")
		d        = flag.Int("d", 8, "number of disks D")
		b        = flag.Int("b", 64, "block size B in records")
		k        = flag.Int("k", 4, "memory parameter k (M = (2k+4)DB + kD^2)")
		mem      = flag.Int("mem", 0, "memory M in records (overrides -k)")
		alg      = flag.String("alg", "srm", "algorithm: srm, srm-det, dsm, psv")
		input    = flag.String("input", "random", "input distribution: random, sorted, reverse, dups")
		runform  = flag.String("runform", "load", "run formation: load (half memoryloads), rs (replacement selection)")
		model    = flag.String("model", "none", "disk time model: none, 1996, modern")
		backend  = flag.String("backend", "mem", "storage backend: mem (in-process), file (real disk files)")
		codec    = flag.String("codec", "fixed16", "record codec: fixed16, varlen, varlen+flate")
		dir      = flag.String("dir", "", "directory for -backend file disk files (default: fresh temp dir)")
		seed     = flag.Int64("seed", 1, "random seed (placement and input)")
		workers  = flag.Int("workers", 0, "goroutines for a pass's merges (SRM only; -1 = GOMAXPROCS)")
		cores    = flag.Int("cores", 0, "cores per sort step: chunked run formation and sharded merging (0 = GOMAXPROCS, 1 = serial; identical output)")
		async    = flag.Bool("async", false, "overlap I/O with merging (SRM/DSM; identical output and I/O statistics)")
		verify   = flag.Bool("verify", true, "verify the output is sorted")
		inFile   = flag.String("infile", "", "read wire-format records from this file instead of generating (-n ignored)")
		outFile  = flag.String("outfile", "", "write the sorted wire-format records to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sort to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile taken after the sort to this file")
		retries  = flag.Int("retries", 0, "re-attempt transient I/O failures up to N times per operation (0 = fail on first error)")
		deadline = flag.Duration("op-deadline", 0, "abandon any block I/O still in flight after this long (retryable; 0 = no deadline)")
		hedge    = flag.Duration("hedge-after", 0, "re-issue a straggling read after this long and take the first result (0 = no hedging)")
		verbose  = flag.Bool("v", false, "also print per-disk latency/health statistics (needs -op-deadline or -hedge-after)")
		ckpt     = flag.Bool("checkpoint", false, "persist a recovery manifest after every completed merge pass")
		resume   = flag.Bool("resume", false, "continue an interrupted checkpointed sort from its last completed pass (implies -checkpoint)")
		scrub    = flag.Bool("scrub", false, "audit every block checksum under -dir and exit (requires -backend file)")
	)
	flag.Parse()

	cfg := srmsort.Config{
		D: *d, B: *b, K: *k, Memory: *mem,
		Seed: *seed, Dir: *dir, Workers: *workers, Cores: *cores, Async: *async,
		Codec: *codec,
	}
	var varlen bool
	switch *codec {
	case "fixed16":
	case "varlen", "varlen+flate":
		varlen = true
	default:
		fatal("unknown -codec %q (want fixed16, varlen or varlen+flate)", *codec)
	}
	switch {
	case *backend == "file":
		cfg.Backend = srmsort.FileBackend
	case *backend == "mem":
		cfg.Backend = srmsort.MemBackend
	default:
		fatal("unknown -backend %q", *backend)
	}
	switch *alg {
	case "srm":
		cfg.Algorithm = srmsort.SRM
	case "srm-det":
		cfg.Algorithm = srmsort.SRMDeterministic
	case "dsm":
		cfg.Algorithm = srmsort.DSM
	case "psv":
		cfg.Algorithm = srmsort.PSV
	default:
		fatal("unknown -alg %q", *alg)
	}
	switch *runform {
	case "load":
		cfg.RunFormation = srmsort.HalfMemoryLoads
	case "rs":
		cfg.RunFormation = srmsort.ReplacementSelection
	default:
		fatal("unknown -runform %q", *runform)
	}
	switch *model {
	case "none":
	case "1996":
		cfg.Model = srmsort.Mid1990sDisk()
	case "modern":
		cfg.Model = srmsort.ModernDisk()
	default:
		fatal("unknown -model %q", *model)
	}
	if *retries > 0 {
		policy := srmsort.DefaultRetryPolicy()
		policy.MaxAttempts = *retries
		policy.Seed = *seed
		cfg.Retry = &policy
	}
	if *deadline > 0 || *hedge > 0 {
		cfg.Deadline = &srmsort.DeadlinePolicy{
			OpDeadline: *deadline,
			HedgeAfter: *hedge,
		}
		if *deadline > 0 && cfg.Retry == nil {
			// A deadline without a retry layer would surface every
			// timeout to the caller; give abandoned ops their re-issue.
			policy := srmsort.DefaultRetryPolicy()
			policy.Seed = *seed
			cfg.Retry = &policy
		}
	}
	cfg.Checkpoint = *ckpt || *resume

	if err := validateRecovery(cfg.Backend, *dir, *codec, *resume, *scrub); err != nil {
		fatal("%v", err)
	}

	if *scrub {
		rep, err := srmsort.Scrub(cfg)
		if err != nil {
			fatal("scrub: %v", err)
		}
		fmt.Printf("scrub: %d blocks audited, %d corrupt\n", rep.Blocks, len(rep.Corrupt))
		for _, addr := range rep.Corrupt {
			fmt.Printf("  corrupt block %v\n", addr)
		}
		if len(rep.Corrupt) > 0 {
			os.Exit(1)
		}
		return
	}

	var records []srmsort.Record
	var vrecords []srmsort.VarRecord
	switch {
	case *inFile != "":
		f, err := os.Open(*inFile)
		if err != nil {
			fatal("%v", err)
		}
		if varlen {
			vrecords, err = srmsort.ReadVarRecords(f)
			*n = len(vrecords)
		} else {
			records, err = srmsort.ReadRecords(f)
			*n = len(records)
		}
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
	case varlen:
		vrecords = generateVar(*input, *n, *seed)
	default:
		records = generate(*input, *n, *seed)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile: %v", err)
		}
	}
	start := time.Now()
	var out []srmsort.Record
	var vout []srmsort.VarRecord
	var stats srmsort.Stats
	var err error
	switch {
	case varlen && *resume:
		vout, stats, err = srmsort.ResumeVar(vrecords, cfg)
	case varlen:
		vout, stats, err = srmsort.SortVar(vrecords, cfg)
	case *resume:
		out, stats, err = srmsort.Resume(records, cfg)
	default:
		out, stats, err = srmsort.Sort(records, cfg)
	}
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatal("sort failed: %s", diagnose(err))
	}
	elapsed := time.Since(start)
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal("%v", err)
		}
		runtime.GC() // flush pending frees so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("-memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
	}

	if *verify {
		sorted := true
		if varlen {
			sorted = slices.IsSortedFunc(vout, func(a, b srmsort.VarRecord) int {
				if c := bytes.Compare(a.Key, b.Key); c != 0 {
					return c
				}
				return bytes.Compare(a.Payload, b.Payload)
			})
		} else {
			sorted = slices.IsSortedFunc(out, func(a, b srmsort.Record) int {
				switch {
				case a.Key < b.Key:
					return -1
				case a.Key > b.Key:
					return 1
				}
				return 0
			})
		}
		if !sorted {
			fatal("output is NOT sorted")
		}
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal("%v", err)
		}
		if varlen {
			err = srmsort.WriteVarRecords(f, vout)
		} else {
			err = srmsort.WriteRecords(f, out)
		}
		if err != nil {
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
	}

	fmt.Printf("%s sorted %d records   (D=%d, B=%d, M=%d records, R=%d, %s backend)\n",
		stats.Algorithm, *n, stats.D, stats.B, stats.M, stats.R, cfg.Backend)
	fmt.Printf("  initial runs:        %d (%s)\n", stats.InitialRuns, *runform)
	fmt.Printf("  merge passes:        %d\n", stats.MergePasses)
	fmt.Printf("  run formation I/O:   %d reads + %d writes\n",
		stats.RunFormationReads, stats.RunFormationWrites)
	fmt.Printf("  merge I/O:           %d reads + %d writes\n",
		stats.MergeReads, stats.MergeWrites)
	fmt.Printf("  total I/O ops:       %d  (bandwidth minimum per pass: %d)\n",
		stats.TotalOps(), (*n+*d**b-1)/(*d**b))
	fmt.Printf("  parallelism:         %.2f read / %.2f write blocks per op (D=%d)\n",
		stats.ReadParallelism, stats.WriteParallelism, *d)
	fmt.Printf("  disk balance:        %.2f read / %.2f write (1.00 = even)\n",
		stats.ReadBalance, stats.WriteBalance)
	switch stats.Algorithm {
	case srmsort.SRM, srmsort.SRMDeterministic:
		fmt.Printf("  virtual flushes:     %d ops, %d blocks forgotten, %d re-read\n",
			stats.Flushes, stats.BlocksFlushed, stats.BlocksReread)
	case srmsort.PSV:
		fmt.Printf("  transposition I/O:   %d ops\n", stats.TransposeOps)
	}
	if stats.SimTime > 0 {
		fmt.Printf("  modelled disk time:  %.2f s (%s disks)\n", stats.SimTime, *model)
	}
	fmt.Printf("  host wall clock:     %v\n", elapsed.Round(time.Millisecond))
	if stats.Health != nil {
		h := stats.Health
		fmt.Printf("  I/O health:          %d hedged reads (%d won), %d deadline timeouts\n",
			h.HedgedReads, h.HedgeWins, h.Timeouts)
		if *verbose {
			for _, dh := range h.PerDisk {
				fmt.Printf("    disk %2d: %7d ops, %3d timeouts, latency %.0f µs EWMA / %.0f µs p99\n",
					dh.Disk, dh.Ops, dh.Timeouts, dh.EWMAMicros, dh.P99Micros)
			}
		}
	} else if *verbose {
		fmt.Printf("  I/O health:          not tracked (set -op-deadline or -hedge-after)\n")
	}
}

func generate(kind string, n int, seed int64) []srmsort.Record {
	rng := rand.New(rand.NewSource(seed + 1000))
	out := make([]srmsort.Record, n)
	switch kind {
	case "random":
		for i := range out {
			out[i] = srmsort.Record{Key: rng.Uint64() >> 1, Val: uint64(i)}
		}
	case "sorted":
		key := uint64(0)
		for i := range out {
			key += uint64(rng.Intn(1000) + 1)
			out[i] = srmsort.Record{Key: key, Val: uint64(i)}
		}
	case "reverse":
		key := uint64(n) * 1000
		for i := range out {
			key -= uint64(rng.Intn(1000) + 1)
			out[i] = srmsort.Record{Key: key, Val: uint64(i)}
		}
	case "dups":
		for i := range out {
			out[i] = srmsort.Record{Key: uint64(rng.Intn(100)), Val: uint64(i)}
		}
	default:
		fatal("unknown -input %q", kind)
	}
	return out
}

// generateVar is generate for the varlen codecs: keys are 4–23 bytes
// from a four-letter alphabet (forcing shared prefixes, the case that
// separates content comparison from prefix comparison), payloads 0–31
// bytes.
func generateVar(kind string, n int, seed int64) []srmsort.VarRecord {
	rng := rand.New(rand.NewSource(seed + 2000))
	out := make([]srmsort.VarRecord, n)
	randKey := func() []byte {
		k := make([]byte, 4+rng.Intn(20))
		for i := range k {
			k[i] = byte('a' + rng.Intn(4))
		}
		return k
	}
	payload := func(i int) []byte {
		p := make([]byte, rng.Intn(32))
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}
	switch kind {
	case "random", "sorted", "reverse":
		for i := range out {
			out[i] = srmsort.VarRecord{Key: randKey(), Payload: payload(i)}
		}
		if kind != "random" {
			slices.SortFunc(out, func(a, b srmsort.VarRecord) int { return bytes.Compare(a.Key, b.Key) })
			if kind == "reverse" {
				slices.Reverse(out)
			}
		}
	case "dups":
		keys := [][]byte{[]byte("aa"), []byte("aab"), []byte("b"), []byte("bcbc"), []byte("dddd")}
		for i := range out {
			out[i] = srmsort.VarRecord{Key: keys[rng.Intn(len(keys))], Payload: payload(i)}
		}
	default:
		fatal("unknown -input %q", kind)
	}
	return out
}

// validateRecovery cross-checks the recovery flags before any work
// happens, so a misuse fails in milliseconds with advice instead of
// silently sorting from scratch (-resume on a fresh mem backend used to
// do exactly that) or failing deep inside the store layer.
func validateRecovery(backend srmsort.Backend, dir, codec string, resume, scrub bool) error {
	if !resume && !scrub {
		return nil
	}
	flagName := "-resume"
	if scrub {
		flagName = "-scrub"
	}
	if backend != srmsort.FileBackend {
		return fmt.Errorf("%s needs on-disk state: add -backend file -dir DIR (the mem backend leaves nothing to %s)",
			flagName, strings.TrimPrefix(flagName, "-"))
	}
	if dir == "" {
		return fmt.Errorf("%s needs -dir DIR naming the sort's disk directory", flagName)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return fmt.Errorf("%s: disk directory %q does not exist", flagName, dir)
	}
	manifest := filepath.Join(dir, "manifest.json")
	if _, err := os.Stat(manifest); err != nil {
		if resume {
			return fmt.Errorf("-resume: no checkpoint manifest under %q — nothing to resume; rerun with -checkpoint (without -resume) to start a recoverable sort", dir)
		}
		return nil // scrubbing an uncheckpointed store is fine
	}
	// The manifest names the codec the sort's blocks are encoded under;
	// resuming or scrubbing with a different -codec would misread every
	// block, so fail in milliseconds with the fix spelled out.
	data, err := os.ReadFile(manifest)
	if err != nil {
		return fmt.Errorf("%s: reading checkpoint manifest: %v", flagName, err)
	}
	var man struct{ Codec string }
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("%s: corrupt checkpoint manifest under %q: %v", flagName, dir, err)
	}
	if man.Codec == "" {
		man.Codec = "fixed16"
	}
	if man.Codec != codec {
		return fmt.Errorf("%s: the checkpoint under %q was written with codec %s, but -codec says %s — rerun with -codec %s",
			flagName, dir, man.Codec, codec, man.Codec)
	}
	return nil
}

// diagnose renders a failed sort's error as one line naming, when known,
// the failing operation, disk, block address and attempt count — what an
// operator needs before deciding between -resume and replacing hardware.
func diagnose(err error) string {
	var parts []string
	var ioe *pdisk.IOError
	if errors.As(err, &ioe) {
		parts = append(parts, fmt.Sprintf("%s on disk %d at block %v", ioe.Op, ioe.Addr.Disk, ioe.Addr))
	}
	var rerr *pdisk.RetryError
	if errors.As(err, &rerr) {
		parts = append(parts, fmt.Sprintf("gave up after %d attempt(s)", rerr.Attempts))
	}
	switch {
	case errors.Is(err, pdisk.ErrCorrupt):
		parts = append(parts, "on-disk corruption: run -scrub, then -resume to rebuild from the last checkpoint")
	case errors.Is(err, pdisk.ErrDiskOffline):
		parts = append(parts, "disk exceeded its error budget and was taken offline")
	case errors.Is(err, pdisk.ErrDeadline):
		parts = append(parts, "operation exceeded its -op-deadline; raise the deadline or add -retries so timeouts are re-issued")
	}
	if len(parts) == 0 {
		return err.Error()
	}
	return fmt.Sprintf("%v [%s]", err, strings.Join(parts, "; "))
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "srmsort: "+format+"\n", args...)
	os.Exit(1)
}
