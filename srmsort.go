// Package srmsort is a from-scratch reproduction of
//
//	R. Barve, E. Grove, J. S. Vitter,
//	"Simple Randomized Mergesort on Parallel Disks", SPAA 1996
//	(extended version: Duke CS-1996-15).
//
// It provides external mergesort on a simulated D-disk parallel I/O system
// (one block of B records per disk per I/O operation), with four
// algorithms:
//
//   - SRM — the paper's Simple Randomized Mergesort: runs striped
//     cyclically with uniformly random starting disks, forecast-driven
//     parallel reads, virtual flushing, and perfect write parallelism.
//   - SRMDeterministic — the Section 8 variant with staggered (run mod D)
//     starting disks and no randomness.
//   - DSM — disk-striped mergesort, the baseline SRM is measured against.
//   - PSV — the Pai–Schaffer–Varman comparator of Section 2.1: one run
//     per disk plus a transposition pass per merge level.
//
// Sort reports exhaustive I/O statistics in the paper's cost unit (parallel
// I/O operations), plus an optional wall-clock estimate under a
// Ruemmler–Wilkes-style disk time model. The companion packages under
// internal/ implement the substrates (disk model, run layout, forecasting,
// memory management, occupancy theory) and the benchmark harness reproduces
// every table and figure of the paper's evaluation; see DESIGN.md and
// EXPERIMENTS.md.
package srmsort

import (
	"errors"
	"fmt"
	"os"
	"runtime"

	"srmsort/internal/analysis"
	"srmsort/internal/dsm"
	"srmsort/internal/pdisk"
	"srmsort/internal/psv"
	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
	"srmsort/internal/srm"
)

// Record is a fixed-size sortable record: records are ordered by Key; Val
// is an opaque payload carried alongside (duplicate keys are permitted and
// sorted stably with respect to nothing in particular — any permutation of
// equal keys is a valid sort). Key 2^64−1 is reserved: the forecast
// format stores it as "no successor block", and a sort refuses input
// holding it.
type Record struct {
	Key uint64
	Val uint64
}

// errReservedKey is the error a sort returns for an input record whose
// key is 2^64−1, the forecast format's "no successor" value.
var errReservedKey = errors.New("key 2^64-1 is reserved")

// Algorithm selects the sorting algorithm.
type Algorithm int

const (
	// SRM is the paper's Simple Randomized Mergesort.
	SRM Algorithm = iota
	// SRMDeterministic is the Section 8 variant with staggered starting
	// disks instead of random ones.
	SRMDeterministic
	// DSM is disk-striped mergesort, the baseline.
	DSM
	// PSV is the Pai–Schaffer–Varman mergesort (Section 2.1 prior work):
	// one run per disk (merge order fixed at D) with a transposition pass
	// between merge levels. Included as a comparator.
	PSV
)

// String returns the algorithm's name.
func (a Algorithm) String() string {
	switch a {
	case SRM:
		return "SRM"
	case SRMDeterministic:
		return "SRM-deterministic"
	case DSM:
		return "DSM"
	case PSV:
		return "PSV"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// RunFormation selects how initial runs are formed.
type RunFormation int

const (
	// HalfMemoryLoads sorts M/2 records at a time (the paper's default,
	// chosen so computation can overlap I/O): 2N/M runs of length M/2.
	HalfMemoryLoads RunFormation = iota
	// ReplacementSelection produces about N/M runs of expected length ~2M
	// on random inputs [Knuth 73].
	ReplacementSelection
)

// Backend selects the storage substrate blocks live on during a sort.
// Every algorithm, sync or async, produces byte-identical output and
// identical I/O statistics on every backend — the storage layer is
// swappable beneath the merge logic (a property the backend equivalence
// suite enforces).
type Backend string

const (
	// MemBackend holds blocks in process memory — the default, and the
	// store the paper-reproduction experiments run on.
	MemBackend Backend = "mem"
	// FileBackend holds blocks in preallocated per-disk files
	// (pdisk.FileStore): the sort moves real serialised bytes through
	// the OS, so inputs larger than RAM sort out of core.
	FileBackend Backend = "file"
)

// DiskModel estimates wall-clock time per I/O operation; see
// Mid1990sDisk and ModernDisk for presets.
type DiskModel = pdisk.TimeModel

// RetryPolicy configures Config.Retry: bounded re-attempts with
// deterministic exponential backoff for transient I/O failures. See
// pdisk.RetryPolicy for the fields and pdisk.DefaultRetryPolicy for the
// defaults.
type RetryPolicy = pdisk.RetryPolicy

// DefaultRetryPolicy returns the standard retry policy (4 attempts, 1 ms
// base delay doubling to a 100 ms cap, 50% jitter).
func DefaultRetryPolicy() RetryPolicy { return pdisk.DefaultRetryPolicy() }

// DeadlinePolicy configures Config.Deadline: per-operation deadlines,
// hedged reads and per-disk latency tracking. See pdisk.DeadlinePolicy.
type DeadlinePolicy = pdisk.DeadlinePolicy

// HealthStats is the deadline layer's per-disk latency and timeout
// accounting; see pdisk.HealthStats.
type HealthStats = pdisk.HealthStats

// ScrubReport is the result of a Scrub pass over a file-backed store.
type ScrubReport = pdisk.ScrubReport

// Mid1990sDisk returns disk parameters typical of the paper's era.
func Mid1990sDisk() *DiskModel { return pdisk.Mid1990sDisk() }

// ModernDisk returns disk parameters of a contemporary 7200 rpm drive.
func ModernDisk() *DiskModel { return pdisk.ModernDisk() }

// Config describes the machine and algorithm for one sort.
type Config struct {
	// D is the number of disks (>= 1; >= 2 for meaningful parallelism).
	D int
	// B is the block size in records (>= 1).
	B int
	// Memory is the internal memory size M in records. If zero, it is
	// derived from K via the paper's sizing M = (2K+4)·D·B + K·D².
	Memory int
	// K, when Memory is zero, sets memory via the paper's k = R/D
	// parameter ("2k is roughly the number of memory blocks per disk").
	K int
	// Algorithm selects SRM (default), SRMDeterministic, DSM or PSV.
	Algorithm Algorithm
	// RunFormation selects the initial-run strategy (SRM variants only;
	// DSM and PSV always use half memoryloads).
	RunFormation RunFormation
	// Seed drives SRM's randomized placement. The same seed reproduces
	// the same I/O schedule exactly.
	Seed int64
	// Model, if non-nil, accumulates an estimated I/O time in
	// Stats.SimTime.
	Model *DiskModel
	// Backend selects the storage substrate: MemBackend (the default
	// when empty) or FileBackend. The choice changes neither the output
	// nor any I/O statistic — only where the blocks physically live.
	Backend Backend
	// Codec selects the record codec — how records serialise into the
	// store's checksummed blocks and the wire format. "" or "fixed16"
	// (the default) is the original fixed 16-byte layout for
	// Record{Key, Val} inputs; "varlen" carries variable-length keys and
	// payloads (VarRecord inputs, see SortVar); "varlen+flate" adds
	// per-block flate compression with a raw fallback, so blocks never
	// expand. Checkpoints record the codec identity and Resume verifies
	// it, failing fast on a mismatch.
	Codec string
	// Dir is the directory holding FileBackend's disk files. Empty means
	// a fresh directory under the OS temporary directory, removed when
	// the sort finishes. A user-supplied Dir is created if absent and
	// kept; only the store's scratch files are removed.
	Dir string
	// Workers > 1 executes the independent merges of each pass on that
	// many goroutines (-1 means GOMAXPROCS); 0 or 1 runs serially. The
	// result and all I/O statistics are identical either way — only the
	// host wall-clock changes. Every algorithm.
	Workers int
	// Cores bounds the goroutines each single sort step spreads its
	// record comparison work over: run-formation loads are sorted in
	// per-core chunks and merged back, and each SRM merge consumes
	// through a sharded super-span kernel. 0 (the default) or a negative
	// value means GOMAXPROCS; 1 is the serial path. Output and every I/O
	// statistic are byte-identical for every value (a property the test
	// suite enforces); only host wall-clock changes. Cores composes with
	// Async and Workers. It applies to every algorithm's run formation and
	// to the SRM variants' merges; DSM's and PSV's merges are serial.
	Cores int
	// Async overlaps I/O with computation: parallel reads are issued
	// asynchronously and merged records are consumed while blocks are in
	// flight, and output stripes are written behind the merge — the
	// paper's two concurrent control flows (Section 5). The result and
	// every I/O statistic are identical to the synchronous execution (a
	// property the test suite enforces); only host wall-clock and, with
	// overlap-aware time models, simulated time change. It applies to the
	// merges of the SRM variants and DSM and to every algorithm's result
	// stream; PSV's transposition and merge run synchronously.
	Async bool
	// Retry, if non-nil, is the System's retry policy
	// (pdisk.Config.Retry): transient I/O failures — of block transfers
	// and of checkpoint manifest and frontier calls — are re-attempted
	// under the policy's deterministic exponential backoff instead of
	// aborting the sort. Terminal errors (corruption, caller bugs) still
	// surface immediately.
	Retry *pdisk.RetryPolicy
	// Deadline, if non-nil, is the System's deadline policy
	// (pdisk.Config.Deadline): every block transfer is bounded by its
	// own deadline, straggling reads are hedged, and per-disk latency
	// (EWMA and windowed p99) is tracked into Stats.Health. A bounded
	// parallel operation costs one executor handoff and one timer on an
	// in-memory store. Deadline timeouts are retryable and charge the
	// retry policy's per-disk error budget, so a stuck disk degrades to
	// ErrDiskOffline instead of hanging the sort. Meaningful mostly with
	// Retry set — without it a timeout surfaces directly to the caller.
	Deadline *pdisk.DeadlinePolicy
	// Checkpoint persists a recovery manifest through the store after run
	// formation and after every completed merge pass, so an interrupted
	// sort can be continued by Resume (or `srmsort -resume`) without
	// redoing completed passes. Supported for every algorithm; requires a
	// backend with manifest support (both built-ins have it).
	// With the file backend and a caller-supplied Dir, the disk files are
	// kept on every exit so the recovery state survives the process.
	Checkpoint bool
	// Store, if non-nil, overrides Backend with a caller-owned store.
	// The sort leaves it open on Close — this is how a harness shares
	// one store (and its checkpoint manifest) across simulated process
	// lifetimes, and how fault-injection wrappers are composed beneath
	// the sort.
	Store pdisk.Store
	// Progress, if non-nil, receives point-in-time snapshots of the
	// sort's advancement: once when the merge phase begins (run
	// formation done, or a checkpoint generation recovered), once after
	// every completed merge pass, and periodically while the sorted
	// result streams out. Snapshots are monotone (see Progress). The
	// callback runs synchronously on a sorting goroutine and must be
	// fast; it must not call back into the sort.
	Progress func(Progress)
	// Gate, if non-nil, throttles this sort's per-disk block transfers
	// through a semaphore shared with other sorts, so concurrent jobs
	// fair-share the bandwidth of one set of physical disks — the sortd
	// server attaches every job to one gate. The gate must cover at
	// least D disks. Purely a scheduling constraint: the output and all
	// I/O statistics are unchanged.
	Gate *pdisk.DiskGate
}

// Stats reports everything a sort did, in the paper's cost units.
type Stats struct {
	Algorithm Algorithm
	// Geometry: disks, block size, memory (records) and merge order.
	D, B, M, R int
	// InitialRuns is the number of runs produced by run formation.
	InitialRuns int
	// MergePasses is the number of merge passes after run formation.
	MergePasses int
	// RunFormationReads/Writes are the I/O operations of the formation
	// pass; MergeReads/Writes those of all merge passes.
	RunFormationReads  int64
	RunFormationWrites int64
	MergeReads         int64
	MergeWrites        int64
	// Flushes, BlocksFlushed, BlocksReread describe SRM's virtual
	// flushing (zero for DSM and PSV).
	Flushes       int64
	BlocksFlushed int64
	BlocksReread  int64
	// TransposeOps counts PSV's realignment operations (included in
	// MergeReads/MergeWrites; zero for the other algorithms).
	TransposeOps int64
	// ReadParallelism and WriteParallelism are average blocks moved per
	// operation (D is perfect).
	ReadParallelism  float64
	WriteParallelism float64
	// ReadBalance and WriteBalance are the busiest disk's share of block
	// traffic relative to an even spread (1.0 = perfectly balanced, D =
	// one disk carried everything). SRM's randomized layout keeps reads
	// near 1.
	ReadBalance  float64
	WriteBalance float64
	// SimTime is the estimated I/O time in seconds under Config.Model.
	SimTime float64
	// Health is the deadline layer's per-disk latency/timeout accounting
	// when Config.Deadline is set; nil otherwise (so stats of
	// deadline-free runs stay comparable).
	Health *HealthStats
}

// TotalOps returns all parallel I/O operations of the sort.
func (s Stats) TotalOps() int64 {
	return s.RunFormationReads + s.RunFormationWrites + s.MergeReads + s.MergeWrites
}

// MergeOrder returns the merge order R the configuration yields, and the
// derived memory size, without sorting.
func (c Config) MergeOrder() (r, m int, err error) {
	if c.D < 1 {
		return 0, 0, fmt.Errorf("srmsort: D = %d, need >= 1", c.D)
	}
	if c.B < 1 {
		return 0, 0, fmt.Errorf("srmsort: B = %d, need >= 1", c.B)
	}
	m = c.Memory
	if m == 0 {
		if c.K < 1 {
			return 0, 0, errors.New("srmsort: set Memory or K")
		}
		m = analysis.MemoryForK(c.K, c.D, c.B)
	}
	switch c.Algorithm {
	case DSM:
		r = analysis.DSMMergeOrder(m, c.D, c.B)
	case PSV:
		r = c.D // one run per disk, independent of memory
		if analysis.PSVLookahead(m, c.D, c.B) < 1 {
			return r, m, fmt.Errorf("srmsort: memory M=%d records leaves no PSV lookahead buffers; increase Memory/K", m)
		}
		if r < 2 {
			return r, m, fmt.Errorf("srmsort: PSV needs D >= 2 disks")
		}
		return r, m, nil
	default:
		r = analysis.SRMMergeOrder(m, c.D, c.B)
	}
	if r < 2 {
		return r, m, fmt.Errorf("srmsort: memory M=%d records yields merge order R=%d (<2); increase Memory/K", m, r)
	}
	return r, m, nil
}

// cores resolves the effective compute-core bound: Cores itself when
// positive, GOMAXPROCS when zero or negative.
func (c Config) cores() int {
	if c.Cores > 0 {
		return c.Cores
	}
	return runtime.GOMAXPROCS(0)
}

// codec resolves the configured record codec ("" means fixed16).
func (c Config) codec() (record.Codec, error) {
	codec, err := record.CodecByName(c.Codec)
	if err != nil {
		return nil, fmt.Errorf("srmsort: %w", err)
	}
	return codec, nil
}

// backend resolves the effective storage backend ("" means MemBackend).
func (c Config) backend() Backend {
	if c.Backend != "" {
		return c.Backend
	}
	return MemBackend
}

// newSystem builds the disk system of a sort on the configured backend,
// and a cleanup function that closes the System and removes any
// file-backed scratch storage. A checkpointed sort over a caller's store
// that cannot hold a manifest fails here, before any input is read.
func (c Config) newSystem() (*pdisk.System, func(), error) {
	codec, err := c.codec()
	if err != nil {
		return nil, nil, err
	}
	var store pdisk.Store
	cleanupStore := func() {}
	retain := c.Store != nil
	switch {
	case c.Store != nil:
		if _, ok := c.Store.(pdisk.ManifestStore); c.Checkpoint && !ok {
			return nil, nil, fmt.Errorf("srmsort: backend cannot persist a checkpoint manifest")
		}
		store = c.Store
	case c.backend() == MemBackend:
		store = pdisk.NewMemStore()
	case c.backend() == FileBackend:
		dir := c.Dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "srmsort-disks-*")
			if err != nil {
				return nil, nil, err
			}
			cleanupStore = func() { os.RemoveAll(tmp) }
			dir = tmp
		}
		fs, err := pdisk.NewFileStoreCodec(dir, c.B, c.D, codec)
		if err != nil {
			cleanupStore()
			return nil, nil, err
		}
		store = fs
		// A checkpointed sort in a user-supplied directory keeps its
		// files: they ARE the recovery state and survive every exit,
		// so the System closes (and fsyncs) the store. Any other file
		// sort's disks are scratch: the System leaves the store open
		// and teardown discards it through Remove, which deletes the
		// files without fsyncing them first. A user directory itself
		// is kept either way.
		if c.Dir == "" || !c.Checkpoint {
			retain = true
			removeDir := cleanupStore
			cleanupStore = func() { fs.Remove(); removeDir() }
		}
	default:
		return nil, nil, fmt.Errorf("srmsort: unknown backend %q", c.Backend)
	}
	sys, err := pdisk.NewSystem(pdisk.Config{D: c.D, B: c.B, Store: store, Model: c.Model,
		RetainStore: retain, Gate: c.Gate, Retry: c.Retry, Deadline: c.Deadline})
	if err != nil {
		cleanupStore()
		return nil, nil, err
	}
	return sys, func() { sys.Close(); cleanupStore() }, nil
}

// Sort externally sorts records under the given configuration and returns
// the sorted records along with full I/O statistics. The input slice is not
// modified. A record with the reserved key 2^64−1 fails the sort with an
// error naming the record, under every algorithm.
func Sort(records []Record, cfg Config) ([]Record, Stats, error) {
	return sortOrResume(records, cfg, false)
}

// Resume continues a checkpointed sort that a crash (or injected kill)
// interrupted: it loads the manifest from the reopened store, verifies
// the newest intact checkpoint generation, reclaims orphaned blocks and
// re-enters the merge loop at the last completed pass — the output is
// byte-identical to an uninterrupted run, and Stats counts only the work
// performed now (completed passes are not redone). If no manifest is
// present the sort restarts from scratch using records, so Resume is
// always safe to call; records may be nil when a manifest is known to
// exist.
func Resume(records []Record, cfg Config) ([]Record, Stats, error) {
	return sortOrResume(records, cfg, true)
}

func sortOrResume(records []Record, cfg Config, resume bool) ([]Record, Stats, error) {
	codec, err := cfg.codec()
	if err != nil {
		return nil, Stats{}, err
	}
	if wideKernel(codec) {
		return sortRecords[record.Record](records, cfg, codec, resume)
	}
	return sortRecords[record.Rec16](records, cfg, codec, resume)
}

// sortRecords is Sort/Resume at kernel width R: the input goes to the
// loader in blocks of B records, each narrowed into a fresh slice.
func sortRecords[R record.KernelRecord](records []Record, cfg Config, codec record.Codec, resume bool) ([]Record, Stats, error) {
	result := make([]Record, 0, len(records))
	stats, err := runSort(cfg, codec, resume, len(records),
		func(load func([]R) error) error {
			if codec.FixedSize() == 0 && len(records) > 0 {
				return fmt.Errorf("srmsort: codec %s needs variable-length records; use SortVar or a varlen wire stream", codec.Name())
			}
			for off := 0; off < len(records); off += cfg.B {
				if err := load(narrow[R](records[off:min(off+cfg.B, len(records))], cfg.B)); err != nil {
					return err
				}
			}
			return nil
		},
		func(blk []R) error {
			result = widen(result, blk)
			return nil
		})
	if err != nil {
		return nil, Stats{}, err
	}
	return result, stats, nil
}

// narrow copies fixed-size records into a block of capacity b at kernel
// width R, from the store's pool (pdisk.NewBlock).
func narrow[R record.KernelRecord](rs []Record, b int) []R {
	blk := pdisk.NewBlock[R](b)[:len(rs)]
	switch b := any(blk).(type) {
	case []record.Rec16:
		for i, r := range rs {
			b[i] = record.Rec16{Key: record.Key(r.Key), Val: r.Val}
		}
	case []record.Record:
		for i, r := range rs {
			b[i] = record.Record{Key: record.Key(r.Key), Val: r.Val}
		}
	default:
		panic("srmsort: narrow at an unknown kernel width")
	}
	return blk
}

// widen appends a block's records to dst as fixed-size Records (an Ext,
// should a resumed varlen sort carry one, is dropped).
func widen[R record.KernelRecord](dst []Record, blk []R) []Record {
	switch b := any(blk).(type) {
	case []record.Rec16:
		for _, r := range b {
			dst = append(dst, Record{Key: uint64(r.Key), Val: r.Val})
		}
	case []record.Record:
		for _, r := range b {
			dst = append(dst, Record{Key: uint64(r.Key), Val: r.Val})
		}
	default:
		panic("srmsort: widen at an unknown kernel width")
	}
	return dst
}

// VarRecord is a variable-length record for the varlen codecs: Key is an
// arbitrary byte string compared lexicographically, Payload an arbitrary
// byte string carried alongside. Records with equal keys are ordered by
// payload bytes — the order is total on content, so the sorted output is
// byte-identical across algorithms, backends and core counts. One
// record's encoding (a small length prefix plus both byte strings) must
// fit MaxVarRecordBytes.
type VarRecord struct {
	Key     []byte
	Payload []byte
}

// MaxVarRecordBytes caps one VarRecord's encoded size: a uvarint key
// length, the key bytes and the payload bytes together.
const MaxVarRecordBytes = record.MaxVarRecordBytes

// SortVar externally sorts variable-length records under cfg. An empty
// cfg.Codec selects "varlen" (the fixed16 default cannot carry
// VarRecords); "varlen+flate" works unchanged. Everything else about the
// Config surface — backends, async, checkpointing, retry, progress —
// applies exactly as it does to Sort.
func SortVar(records []VarRecord, cfg Config) ([]VarRecord, Stats, error) {
	return sortOrResumeVar(records, cfg, false)
}

// ResumeVar is Resume for variable-length records: it continues a
// checkpointed SortVar that a crash interrupted. The manifest records the
// codec identity, and resuming under a different codec fails fast.
func ResumeVar(records []VarRecord, cfg Config) ([]VarRecord, Stats, error) {
	return sortOrResumeVar(records, cfg, true)
}

func sortOrResumeVar(records []VarRecord, cfg Config, resume bool) ([]VarRecord, Stats, error) {
	if cfg.Codec == "" {
		cfg.Codec = "varlen"
	}
	codec, err := cfg.codec()
	if err != nil {
		return nil, Stats{}, err
	}
	result := make([]VarRecord, 0, len(records))
	stats, err := runSort(cfg, codec, resume, len(records),
		func(load func([]record.Record) error) error {
			if codec.FixedSize() != 0 && len(records) > 0 {
				return fmt.Errorf("srmsort: variable-length records need Config.Codec varlen or varlen+flate (codec is %s)", codec.Name())
			}
			for off := 0; off < len(records); off += cfg.B {
				blk := pdisk.NewBlock[record.Record](cfg.B)[:min(cfg.B, len(records)-off)]
				for i := range blk {
					r, err := record.MakeVar(records[off+i].Key, records[off+i].Payload)
					if err != nil {
						return fmt.Errorf("srmsort: record %d: %w", off+i, err)
					}
					blk[i] = r
				}
				if err := load(blk); err != nil {
					return err
				}
			}
			return nil
		},
		func(blk []record.Record) error {
			for _, rec := range blk {
				key, payload, err := record.VarParts(rec)
				if err != nil {
					return err
				}
				result = append(result, VarRecord{Key: key, Payload: payload})
			}
			return nil
		})
	if err != nil {
		return nil, Stats{}, err
	}
	return result, stats, nil
}

// recordFeed streams a sort's unsorted input into its loader: it calls
// load with consecutive spans of the input, each a fresh slice the
// loader takes over — whole blocks of the sort's B records, but for the
// last. recordSink consumes one block of the sorted output stream: the
// stored block's own records, valid only for the call. They are the
// seams Sort, SortVar and their resumes (slices) and
// SortStream/ResumeStream (wire-format readers and writers) share,
// instantiated at the kernel width the codec selects, so no record
// crosses them one call at a time.
type (
	recordFeed[R record.KernelRecord] func(load func([]R) error) error
	recordSink[R record.KernelRecord] func(blk []R) error
)

// forceWideKernel routes fixed16 sorts through the wide record.Record
// kernel instantiation instead of the 16-byte Rec16 one. Test-only hook:
// the two-width equivalence fuzzer flips it to check that both
// instantiations produce byte-identical output.
var forceWideKernel = false

// wideKernel reports whether a sort under codec runs the wide
// record.Record kernel instantiation — the varlen codecs, whose Ext
// payload the kernel must carry and adjudicate — rather than the 16-byte
// pointer-free record.Rec16 one the fixed16 codec selects.
func wideKernel(codec record.Codec) bool {
	return codec.FixedSize() == 0 || forceWideKernel
}

// runSort is the sorting core behind Sort, Resume, SortVar, ResumeVar,
// SortStream and ResumeStream, at the kernel width R its caller picked by
// wideKernel. feed supplies the unsorted input (not invoked when a
// resume finds a checkpoint manifest — the input already lives on the
// store); each feed makes sure its records suit the codec. sink receives
// the sorted output stream. nrec is the input size when the caller knows
// it (0 for streamed inputs), used only to cross-check a resume manifest
// against the supplied input.
//
// A sort starts its merge passes from a checkpoint generation: a fresh
// sort's is generation 0, the runs it forms (formRuns); a resumed sort's
// is the newest one on the store that verifies. From there mergeFrom runs
// both alike.
func runSort[R record.KernelRecord](cfg Config, codec record.Codec, resume bool, nrec int, feed recordFeed[R], sink recordSink[R]) (Stats, error) {
	r, m, err := cfg.MergeOrder()
	if err != nil {
		return Stats{}, err
	}
	varlen := codec.FixedSize() == 0
	if varlen && cfg.RunFormation == ReplacementSelection {
		// The selection heap's admission rule compares prefix words only
		// and would misclassify prefix-tied records; runform fails fast
		// too, but catching it here beats loading the input first.
		return Stats{}, fmt.Errorf("srmsort: codec %s does not support replacement selection; use HalfMemoryLoads", codec.Name())
	}
	stats := Stats{Algorithm: cfg.Algorithm, D: cfg.D, B: cfg.B, M: m, R: r}
	tr := newProgressTracker(cfg.Progress)

	sys, cleanup, err := cfg.newSystem()
	if err != nil {
		return Stats{}, err
	}
	defer cleanup()

	var man *manifest // the checkpoint state this sort keeps; nil when it keeps none
	if resume {
		if man, err = loadManifest(sys); err != nil {
			return Stats{}, err
		}
	}
	var gen runGen
	var runs []*runio.Run
	var place runio.Placement
	if man != nil {
		if err := man.check(cfg, m, r, nrec, codec.Name()); err != nil {
			return Stats{}, err
		}
		if gen, err = chooseGen(sys, man); err != nil {
			return Stats{}, err
		}
		if len(gen.Runs) == 0 {
			return Stats{}, fmt.Errorf("srmsort: manifest holds no runs")
		}
		if err := reclaimOrphans(sys, man, gen); err != nil {
			return Stats{}, err
		}
		sys.ResetStats() // verification reads are recovery, not sorting cost
		man.Cur, man.Prev = gen, nil
		stats.InitialRuns = man.InitialRuns
		runs = make([]*runio.Run, len(gen.Runs))
		for i, st := range gen.Runs {
			runs[i] = runio.RunFromState(st)
		}
		place = runPlacement(cfg, gen.Draws)
	} else {
		if resume {
			// No checkpoint survived: restart from scratch over a store
			// an earlier attempt may have dirtied.
			if err := wipeStore(sys); err != nil {
				return Stats{}, err
			}
		}
		if man, gen, runs, place, err = formRuns(sys, cfg, codec, m, r, feed, &stats); err != nil {
			return Stats{}, err
		}
	}
	final, err := mergeFrom[R](sys, cfg, m, r, man, gen, runs, place, &stats, tr)
	if err != nil {
		return Stats{}, err
	}

	// Snapshot the I/O figures before reading the result back out —
	// verification traffic is not sorting cost.
	sorted := sys.Stats()
	stats.ReadParallelism = sorted.ReadParallelism()
	stats.WriteParallelism = sorted.WriteParallelism()
	stats.ReadBalance = sorted.ReadBalance()
	stats.WriteBalance = sorted.WriteBalance()
	stats.SimTime = sorted.SimTime
	stats.Health = sorted.Health

	if final != nil {
		if err := runio.StreamBlocks(sys, final, cfg.Async, func(blk []R) error {
			if err := sink(blk); err != nil {
				return err
			}
			tr.emitted(int64(len(blk)))
			return nil
		}); err != nil {
			return Stats{}, err
		}
	}
	tr.finish()
	// The sort is complete and its result materialised: the recovery
	// state has served its purpose.
	if man != nil {
		if err := sys.ClearManifest(); err != nil {
			return Stats{}, err
		}
	}
	return stats, nil
}

// formRuns loads a fresh sort's input and forms its initial runs —
// generation 0 — recording the formation's cost in stats. The returned
// placement places the merge passes' runs, continuing from the gen.Draws
// draws formation made. With Checkpoint set it also returns the sort's
// manifest, holding generation 0, saved when there are runs to merge.
// The algorithms differ here only in their runs' starting disks
// (runPlacement) and in that DSM and PSV always form runs from half
// memoryloads.
func formRuns[R record.KernelRecord](sys *pdisk.System, cfg Config, codec record.Codec, m, r int, feed recordFeed[R], stats *Stats) (*manifest, runGen, []*runio.Run, runio.Placement, error) {
	loader := runform.NewLoader[R](sys)
	loaded := 0
	if err := feed(func(blk []R) error {
		if i := record.IndexKey(blk, record.MaxKey); i >= 0 {
			return fmt.Errorf("srmsort: input record %d: %w", loaded+i, errReservedKey)
		}
		loaded += len(blk)
		return loader.AppendBlock(blk)
	}); err != nil {
		return nil, runGen{}, nil, nil, err
	}
	file, err := loader.Finish()
	if err != nil {
		return nil, runGen{}, nil, nil, err
	}
	var man *manifest
	if cfg.Checkpoint {
		frontier, err := storeFrontiers(sys)
		if err != nil {
			return nil, runGen{}, nil, nil, err
		}
		man = &manifest{
			Version:       manifestVersion,
			Algorithm:     cfg.Algorithm.String(),
			Codec:         codec.Name(),
			D:             cfg.D,
			B:             cfg.B,
			M:             m,
			R:             r,
			Seed:          cfg.Seed,
			Formation:     int(cfg.RunFormation),
			Records:       file.Records,
			InputFrontier: frontier,
		}
	}
	sys.ResetStats() // loading the input is setup, not sorting cost

	place := runPlacement(cfg, 0)
	counted := &runio.CountingPlacement{Inner: place}
	var formed runform.Result
	if cfg.RunFormation == ReplacementSelection && (cfg.Algorithm == SRM || cfg.Algorithm == SRMDeterministic) {
		formed, err = runform.ReplacementSelectionCores[R](sys, file, m, counted, 0, cfg.cores())
	} else {
		formed, err = runform.MemoryLoadCores[R](sys, file, (m+1)/2, counted, 0, cfg.cores())
	}
	if err != nil {
		return nil, runGen{}, nil, nil, err
	}
	afterForm := sys.Stats()
	stats.RunFormationReads = afterForm.ReadOps
	stats.RunFormationWrites = afterForm.WriteOps
	stats.InitialRuns = len(formed.Runs)
	gen := runGen{Seq: formed.NextSeq, Draws: counted.Draws()}
	if man != nil && len(formed.Runs) > 0 {
		// Checkpoint the freshly formed runs so a crash during the first
		// merge pass can resume from them.
		gen.Runs = runStates(formed.Runs)
		man.InitialRuns = len(formed.Runs)
		man.Cur = gen
		if err := saveManifest(sys, man); err != nil {
			return nil, runGen{}, nil, nil, err
		}
	}
	return man, gen, formed.Runs, place, nil
}

// mergeFrom runs the merge passes over runs, the runs of generation gen,
// with the algorithm's merge, records their statistics and returns the
// final run (nil when there are no runs: an empty input). place places
// the runs it writes and has made gen.Draws draws. After each pass it
// saves the next generation in man, when the sort keeps a manifest, and
// reports Progress, and the pass's inputs are freed after that; with
// neither, each merge frees its inputs' blocks as it drains them. Memory
// m sizes PSV's lookahead buffers.
func mergeFrom[R record.KernelRecord](sys *pdisk.System, cfg Config, m, r int, man *manifest, gen runGen, runs []*runio.Run, place runio.Placement, stats *Stats, tr *progressTracker) (*runio.Run, error) {
	tr.formed(stats.InitialRuns, len(runs), r, gen.Pass)
	if len(runs) == 0 {
		return nil, nil
	}
	counted := &runio.CountingPlacement{Inner: place}
	opts := srm.SortOpts{Async: cfg.Async, Workers: cfg.Workers, Cores: cfg.cores()}
	if man != nil || tr != nil {
		opts.AfterPass = func(pass int, survivors []*runio.Run, seq int) error {
			if man != nil {
				prev := man.Cur
				man.Prev = &prev
				man.Cur = runGen{
					Pass:  gen.Pass + pass,
					Seq:   seq,
					Draws: gen.Draws + counted.Draws(),
					Runs:  runStates(survivors),
				}
				if err := saveManifest(sys, man); err != nil {
					return err
				}
			}
			tr.pass(gen.Pass, pass, len(survivors))
			return nil
		}
	}
	var merge srm.MergeFunc
	switch cfg.Algorithm {
	case DSM:
		merge = dsm.Merge[R](sys, cfg.Async)
	case PSV:
		merge = psv.Merge[R](sys, analysis.PSVLookahead(m, cfg.D, cfg.B))
	default:
		merge = srm.PassMerge[R](sys, r, srm.MergeOpts{Async: cfg.Async, Cores: cfg.cores()})
	}
	final, ss, _, err := srm.SortRunsWith(sys, runs, r, counted, gen.Seq, opts, merge)
	if err != nil {
		return nil, err
	}
	stats.MergePasses = ss.MergePasses
	stats.MergeReads = ss.ReadOps
	stats.MergeWrites = ss.WriteOps
	stats.Flushes = ss.Flushes
	stats.BlocksFlushed = ss.BlocksFlushed
	stats.BlocksReread = ss.BlocksReread
	stats.TransposeOps = ss.TransposeOps
	return final, nil
}
