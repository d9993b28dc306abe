// Package jobs is the scheduler behind sortd: it runs many srmsort jobs
// concurrently inside one process, sharing the machine the way the
// library shares a parallel-disk system.
//
// Four global resources are arbitrated:
//
//   - Memory. Each job's working memory M (records, derived from its
//     geometry by srmsort.Config.MergeOrder) is reserved from one
//     server-wide budget before the job starts and returned when it
//     finishes. Admission is FIFO (see budget); the budget is never
//     oversubscribed.
//   - Cores. Each job's Spec.Cores (the library's Config.Cores — how
//     many goroutines its sort steps spread comparison work over) is
//     reserved from a server-wide core budget in the same atomic FIFO
//     grant as its memory, so co-tenant sorts cannot oversubscribe the
//     CPU.
//   - Disk bandwidth. All jobs' Systems share one pdisk.DiskGate, so a
//     job's per-disk transfer concurrency is bounded server-wide and a
//     wide job cannot monopolise the disks against a narrow one.
//   - Durability. With a root directory configured, every job lives in
//     its own subdirectory — input, striped disk files, checkpoint
//     manifest, output — and PR 5's fault tolerance becomes tenant
//     visible: jobs checkpoint after every merge pass, transient I/O
//     errors are retried and then resumed in place, and a server that
//     dies mid-flight resumes every incomplete job from its manifest on
//     the next NewManager over the same root.
//
// Without a root the manager is volatile: jobs sort in memory and
// results vanish with the process (still checkpointed in-process, so
// transient faults resume rather than restart).
package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// Spec is a tenant's description of one sort job — the JSON surface of
// POST /jobs. Zero fields inherit the server's defaults.
type Spec struct {
	// Algorithm is one of "srm" (default), "srm-det", "dsm", "psv".
	Algorithm string `json:"algorithm,omitempty"`
	// D, B are the simulated disk count and block size (records).
	D int `json:"d,omitempty"`
	B int `json:"b,omitempty"`
	// K is the library's Config.K: memory M = (2K+4)·D·B + K·D² records
	// (analysis.MemoryForK). Memory (records) overrides K.
	K      int `json:"k,omitempty"`
	Memory int `json:"memory,omitempty"`
	// Seed fixes the randomized layout; 0 inherits the server default.
	Seed int64 `json:"seed,omitempty"`
	// Async enables the overlapped-I/O pipeline. Spec files written
	// before the per-job workers knob was removed may still carry a
	// "workers" field; decoding ignores it.
	Async bool `json:"async,omitempty"`
	// Cores is how many goroutines the job's single sort steps spread
	// comparison work over (library Config.Cores). It is reserved from
	// the server's core budget alongside memory; 0 inherits the server
	// default (1 — co-tenant jobs are serial unless they ask).
	Cores int `json:"cores,omitempty"`
	// Codec is the record codec of the job's input, disks and output:
	// "" or "fixed16" (16-byte wire records), "varlen" or "varlen+flate"
	// (length-prefixed variable-size records). Ingest counts records by
	// decoding the wire stream, and the job's memory reservation is
	// scaled by the largest record the input actually contains, so a
	// varlen job is admitted by the bytes it will really hold.
	Codec string `json:"codec,omitempty"`
}

// withDefaults fills s's zero fields from d.
func (s Spec) withDefaults(d Spec) Spec {
	if s.Algorithm == "" {
		s.Algorithm = d.Algorithm
	}
	if s.D == 0 {
		s.D = d.D
	}
	if s.B == 0 {
		s.B = d.B
	}
	if s.K == 0 && s.Memory == 0 {
		s.K, s.Memory = d.K, d.Memory
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.Cores == 0 {
		s.Cores = d.Cores
	}
	if s.Codec == "" {
		s.Codec = d.Codec
	}
	if !s.Async {
		s.Async = d.Async
	}
	return s
}

// parseAlgorithm maps a Spec's algorithm name to the library constant.
func parseAlgorithm(name string) (srmsort.Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "srm":
		return srmsort.SRM, nil
	case "srm-det":
		return srmsort.SRMDeterministic, nil
	case "dsm":
		return srmsort.DSM, nil
	case "psv":
		return srmsort.PSV, nil
	default:
		return 0, fmt.Errorf("jobs: unknown algorithm %q (want srm, srm-det, dsm or psv)", name)
	}
}

// Config translates the spec into a library Config (store, retry, gate
// and checkpoint policy are the manager's to fill in).
func (s Spec) Config() (srmsort.Config, error) {
	alg, err := parseAlgorithm(s.Algorithm)
	if err != nil {
		return srmsort.Config{}, err
	}
	return srmsort.Config{
		D:         s.D,
		B:         s.B,
		K:         s.K,
		Memory:    s.Memory,
		Algorithm: alg,
		Seed:      s.Seed,
		Async:     s.Async,
		Cores:     s.Cores,
		Codec:     s.Codec,
	}, nil
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: submitted, waiting for a memory reservation.
	StateQueued State = "queued"
	// StateRunning: admitted; the sort (or a resume of it) is in flight.
	StateRunning State = "running"
	// StateDone: sorted output is complete and fetchable.
	StateDone State = "done"
	// StateFailed: the sort failed terminally (every attempt exhausted,
	// or the server was torn down — the latter only until restart, when
	// a durable job resumes).
	StateFailed State = "failed"
	// StateCanceled: the tenant canceled the job.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is a point-in-time snapshot of a job, JSON-ready.
type Status struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Spec    Spec   `json:"spec"`
	Records int    `json:"records"`
	// MemoryReserved is the job's current carve from the server budget
	// (records); zero while queued or after finishing.
	MemoryReserved int `json:"memory_reserved,omitempty"`
	// CoresReserved is the job's current carve from the server core
	// budget; zero while queued or after finishing.
	CoresReserved int `json:"cores_reserved,omitempty"`
	// Attempts counts sort attempts in this server incarnation,
	// automatic fault-recovery resumes included.
	Attempts int `json:"attempts,omitempty"`
	// Resumed is true if this incarnation found the job interrupted
	// mid-flight and re-ran it from a previous server's on-disk
	// state. Jobs recovered already in a terminal state (done,
	// canceled, failed) are republished, not resumed.
	Resumed  bool             `json:"resumed,omitempty"`
	Progress srmsort.Progress `json:"progress"`
	Stats    *srmsort.Stats   `json:"stats,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// Job is one submitted sort. All methods are safe for concurrent use.
type Job struct {
	id       string
	dir      string // per-job directory; "" when the manager is volatile
	spec     Spec
	records  int
	memNeed  int // 16-byte record units of working memory to reserve
	coreNeed int // cores to reserve alongside the memory
	// maxRecBytes is the largest record the ingested input holds (16 for
	// fixed16 inputs) — what memNeed was scaled by.
	maxRecBytes int

	cancelOnce sync.Once
	cancelCh   chan struct{}
	done       chan struct{}

	mu        sync.Mutex
	state     State
	resumed   bool
	attempts  int
	reserved  int
	reservedC int
	progress  srmsort.Progress
	stats     *srmsort.Stats
	errText   string
	input     [][]byte    // volatile managers only: the wire input, in chunks
	inBytes   int64       // volatile managers only: the input's size
	output    []byte      // volatile managers only
	store     pdisk.Store // the running sort's store; nil between runs
	killed    error       // why the job was severed; the first reason wins
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:             j.id,
		State:          j.state,
		Spec:           j.spec,
		Records:        j.records,
		MemoryReserved: j.reserved,
		CoresReserved:  j.reservedC,
		Attempts:       j.attempts,
		Resumed:        j.resumed,
		Progress:       j.progress,
		Stats:          j.stats,
		Error:          j.errText,
	}
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *Job) setReserved(mem, cores int) {
	j.mu.Lock()
	j.reserved, j.reservedC = mem, cores
	j.mu.Unlock()
}

func (j *Job) setStore(st pdisk.Store) {
	j.mu.Lock()
	j.store = st
	j.mu.Unlock()
}

// kill severs the job's sort: it records reason, unless an earlier kill
// gave one, and closes the running store, if one is published. Every
// later transfer and manifest call of the sort then fails with
// pdisk.ErrInvalid, which no retry re-attempts, so the sort collapses
// promptly — the store dies under it, like a crashed process's, and
// whatever the checkpoints persisted stays on disk for a resume.
func (j *Job) kill(reason error) {
	j.mu.Lock()
	if j.killed == nil {
		j.killed = reason
	}
	st := j.store
	j.mu.Unlock()
	if st != nil {
		st.Close()
	}
}

// killReason returns why the job was severed, or nil.
func (j *Job) killReason() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.killed
}

func (j *Job) bumpAttempt() {
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
}

// noteProgress is the srmsort.Config.Progress hook.
func (j *Job) noteProgress(p srmsort.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// cancel requests cancellation: it abandons a queued admission wait and
// closes a running sort's store. Idempotent; a terminal job is unmoved.
func (j *Job) cancel() {
	j.cancelOnce.Do(func() { close(j.cancelCh) })
	j.kill(ErrCanceled)
}

// Options configures a Manager.
type Options struct {
	// Root is the directory jobs persist under; every job gets
	// Root/job-NNNNNN. Empty runs the manager volatile (in-memory
	// stores, results held in process memory, nothing survives exit).
	Root string
	// MemoryBudget is the server-wide working-memory budget in records;
	// every job's M is reserved from it. Required.
	MemoryBudget int
	// CoreBudget is the server-wide core budget; every job's Cores is
	// reserved from it alongside its memory (one atomic {memory, cores}
	// grant, same FIFO). 0 means GOMAXPROCS.
	CoreBudget int
	// GateWidth bounds each simulated disk's in-flight transfers across
	// ALL jobs (the shared bandwidth knob). 0 means 2; negative disables
	// the gate entirely.
	GateWidth int
	// GateDisks is how many disks the shared gate covers — the largest D
	// any job may request. 0 means 64.
	GateDisks int
	// Retry, if non-nil, gives every job's disk system transient-fault
	// retries (srmsort.Config.Retry).
	Retry *pdisk.RetryPolicy
	// Deadline, if non-nil, gives every job's disk system deadlines and
	// hedged reads (srmsort.Config.Deadline). The
	// manager clones the policy and fills its Tracker, so every job
	// shares one server-wide health tracker — per-disk latency across
	// all tenants, surfaced through Manager.Health and GET /stats.
	Deadline *pdisk.DeadlinePolicy
	// MaxAttempts bounds sort attempts per job per server incarnation
	// (first run plus checkpoint resumes after retry-exhausted faults).
	// 0 means 3.
	MaxAttempts int
	// Defaults fills zero fields of submitted specs. Zero fields of
	// Defaults itself fall back to D=4, B=16, K=3, algorithm srm.
	Defaults Spec
	// StoreWrap, if non-nil, wraps each job's backing store once per
	// run — the fault-injection seam (tests interpose pdisk.FaultStore
	// here). The wrapper is applied beneath the retry layer; its Close
	// must close the store it wraps, since a cancel or Kill severs the
	// job by closing the wrapper.
	StoreWrap func(jobID string, inner pdisk.Store) pdisk.Store
	// Logf, if non-nil, receives one line per notable job event.
	Logf func(format string, args ...any)
}

// Manager owns the job table, the memory budget and the shared disk
// gate. One Manager is one sortd server incarnation.
type Manager struct {
	opts   Options
	budget *budget
	gate   *pdisk.DiskGate
	health *pdisk.HealthTracker // shared across all jobs; nil without Deadline
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	killed   bool
	draining bool
}

// NewManager builds a manager and, when opts.Root holds jobs from a
// previous incarnation, reloads them: finished jobs reappear with their
// results fetchable, incomplete ones restart automatically — from their
// checkpoint manifest when one survived, from their persisted input
// otherwise. Partially submitted job directories (no spec yet) are
// removed.
func NewManager(opts Options) (*Manager, error) {
	if opts.MemoryBudget < 1 {
		return nil, fmt.Errorf("jobs: MemoryBudget = %d, need >= 1", opts.MemoryBudget)
	}
	if opts.GateWidth == 0 {
		opts.GateWidth = 2
	}
	if opts.GateDisks == 0 {
		opts.GateDisks = 64
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 3
	}
	if opts.CoreBudget == 0 {
		opts.CoreBudget = runtime.GOMAXPROCS(0)
	}
	if opts.CoreBudget < 1 {
		return nil, fmt.Errorf("jobs: CoreBudget = %d, need >= 1", opts.CoreBudget)
	}
	opts.Defaults = opts.Defaults.withDefaults(Spec{Algorithm: "srm", D: 4, B: 16, K: 3, Cores: 1})
	if opts.Deadline != nil {
		// Clone the policy and pin one tracker: every job's deadline
		// layer reports into the same server-wide health ledger.
		policy := *opts.Deadline
		if policy.Tracker == nil {
			policy.Tracker = pdisk.NewHealthTracker()
		}
		opts.Deadline = &policy
	}
	m := &Manager{
		opts:   opts,
		budget: newBudget(opts.MemoryBudget, opts.CoreBudget),
		jobs:   make(map[string]*Job),
	}
	if opts.Deadline != nil {
		m.health = opts.Deadline.Tracker
	}
	if opts.GateWidth > 0 {
		m.gate = pdisk.NewDiskGate(opts.GateDisks, opts.GateWidth)
	}
	if opts.Root != "" {
		if err := os.MkdirAll(opts.Root, 0o755); err != nil {
			return nil, err
		}
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Budget reports the server memory ledger: total, currently reserved,
// and the reservation high-water mark (all in records).
func (m *Manager) Budget() (total, inUse, peak int) {
	return m.budget.Total(), m.budget.InUse(), m.budget.Peak()
}

// Cores reports the server core ledger: total, currently reserved, and
// the reservation high-water mark.
func (m *Manager) Cores() (total, inUse, peak int) {
	return m.budget.CoresTotal(), m.budget.CoresInUse(), m.budget.CoresPeak()
}

// Submit registers a job and starts it. The input is drained fully
// before Submit returns (ingest is part of submission: a durable job's
// input must be on disk before the job can promise to survive a crash).
func (m *Manager) Submit(spec Spec, input io.Reader) (*Job, error) {
	return m.submit(spec, input, -1)
}

// submit is Submit with the input's claimed size in bytes (negative when
// unknown), a hint that only sizes ingest's buffers.
func (m *Manager) submit(spec Spec, input io.Reader, hint int64) (*Job, error) {
	spec = spec.withDefaults(m.opts.Defaults)
	memNeed, coreNeed, err := m.validate(spec)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return nil, ErrKilled
	}
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.nextID++
	id := fmt.Sprintf("job-%06d", m.nextID)
	m.mu.Unlock()

	j := &Job{
		id:       id,
		spec:     spec,
		memNeed:  memNeed,
		coreNeed: coreNeed,
		state:    StateQueued,
		cancelCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := m.ingest(j, input, hint); err != nil {
		if j.dir != "" {
			os.RemoveAll(j.dir)
		}
		return nil, err
	}
	// Admission is byte-accurate: now that ingest has measured the input,
	// scale the reservation by the largest record it actually contains.
	j.memNeed = scaledMemNeed(j.memNeed, j.maxRecBytes)
	if j.memNeed > m.budget.Total() {
		if j.dir != "" {
			os.RemoveAll(j.dir)
		}
		return nil, fmt.Errorf("%w: job needs M=%d record units for its %d-byte records, server budget is %d",
			ErrOverBudget, j.memNeed, j.maxRecBytes, m.budget.Total())
	}
	m.register(j)
	m.wg.Add(1)
	go m.run(j, false)
	return j, nil
}

// validate checks a defaulted spec against the server's limits and
// returns the working memory and cores it will reserve.
func (m *Manager) validate(spec Spec) (memNeed, coreNeed int, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return 0, 0, err
	}
	if _, err := record.CodecByName(spec.Codec); err != nil {
		return 0, 0, fmt.Errorf("jobs: %w", err)
	}
	_, memNeed, err = cfg.MergeOrder()
	if err != nil {
		return 0, 0, err
	}
	if m.gate != nil && spec.D > m.gate.D() {
		return 0, 0, fmt.Errorf("jobs: d=%d exceeds the server's %d shared disks", spec.D, m.gate.D())
	}
	if memNeed > m.budget.Total() {
		return 0, 0, fmt.Errorf("%w: job needs M=%d records, server budget is %d",
			ErrOverBudget, memNeed, m.budget.Total())
	}
	if spec.Cores < 1 {
		return 0, 0, fmt.Errorf("jobs: cores = %d, need >= 1 (0 inherits the server default)", spec.Cores)
	}
	if spec.Cores > m.budget.CoresTotal() {
		return 0, 0, fmt.Errorf("%w: job needs %d cores, server budget is %d",
			ErrOverBudget, spec.Cores, m.budget.CoresTotal())
	}
	return memNeed, spec.Cores, nil
}

// ingest drains the job's input and counts its records. Durable layout
// per job directory:
//
//	input.rec   the raw wire-format input (written and synced first)
//	spec.json   the job spec (written atomically LAST — its presence is
//	            the submit commit point; a dir without it is garbage)
//	disks/      the striped FileStore + checkpoint manifest
//	output.rec  the sorted result (renamed into place = job done)
//	stats.json  final srmsort.Stats
//	canceled / failed   terminal markers
//
// A volatile job keeps its input in memory, read in chunks (readChunks).
// Neither kind decodes a record to count it: a fixed-size codec's count
// is the byte total over the record size, a varlen one's a walk over the
// length prefixes (countVarlen).
func (m *Manager) ingest(j *Job, input io.Reader, hint int64) error {
	if input == nil {
		input = bytes.NewReader(nil)
	}
	codec, err := record.CodecByName(j.spec.Codec)
	if err != nil {
		return fmt.Errorf("jobs: %w", err) // validated at submit; defensive
	}
	if m.opts.Root == "" {
		chunks, total, err := readChunks(input, hint)
		if err != nil {
			return fmt.Errorf("jobs: reading input: %w", err)
		}
		var n, maxRec int
		if codec.FixedSize() > 0 {
			n, maxRec, err = countFixed(codec, total)
		} else {
			n, maxRec, err = countVarlen(chunkReader(chunks), codec)
		}
		if err != nil {
			return err
		}
		j.input, j.inBytes = chunks, total
		j.records = n
		j.maxRecBytes = maxRec
		return nil
	}

	j.dir = filepath.Join(m.opts.Root, j.id)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(j.dir, "input.rec"))
	if err != nil {
		return err
	}
	var n, maxRec int
	if codec.FixedSize() > 0 {
		var total int64
		if total, err = io.Copy(f, input); err != nil {
			err = fmt.Errorf("jobs: copying input: %w", err)
		} else {
			n, maxRec, err = countFixed(codec, total)
		}
	} else {
		// Walk while copying: the count and largest record come from the
		// same pass that makes the input durable.
		n, maxRec, err = countVarlen(io.TeeReader(input, f), codec)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	j.records = n
	j.maxRecBytes = maxRec
	return m.writeSpec(j)
}

// Chunk sizes of a volatile job's in-memory input.
const (
	ingestMinChunk = 4 << 10
	ingestMaxChunk = 1 << 20
)

// readChunks reads r to its end in chunks of at most ingestMaxChunk
// bytes, each filled before the next is made: every byte is copied once
// and no buffer is ever regrown. hint, the size the client claimed
// (negative when unknown), sizes the chunks and nothing else — each is
// what the hint says is left plus one byte, so an honest hint needs no
// allocation to see the end, and the cap bounds what a false one costs.
// Past the hint, chunk sizes start at ingestMinChunk and double.
//
// Only io.EOF ends the input. Any other error, io.ErrUnexpectedEOF
// included, is returned: it is what a request body shorter than its
// Content-Length reports, so a truncated upload is refused even when it
// ends on a record boundary.
func readChunks(r io.Reader, hint int64) (chunks [][]byte, total int64, err error) {
	next := int64(ingestMinChunk)
	for {
		size := next
		if left := hint - total; left >= 0 {
			size = left + 1
		} else {
			next = min(2*next, ingestMaxChunk)
		}
		buf := make([]byte, min(size, ingestMaxChunk))
		n := 0
		for n < len(buf) && err == nil {
			var m int
			m, err = r.Read(buf[n:])
			n += m
		}
		if n > 0 {
			chunks = append(chunks, buf[:n])
			total += int64(n)
		}
		if err == io.EOF {
			return chunks, total, nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// chunkReader reads a chunked input back as one stream.
func chunkReader(chunks [][]byte) io.Reader {
	rs := make([]io.Reader, len(chunks))
	for i, c := range chunks {
		rs[i] = bytes.NewReader(c)
	}
	return io.MultiReader(rs...)
}

// notWhole is ingest's refusal of an input that is not whole records:
// err, from the codec, names what is wrong with record n.
func notWhole(codec record.Codec, n int, err error) error {
	return fmt.Errorf("jobs: input is not whole %s records (record size check failed at record %d): %w",
		codec.Name(), n, err)
}

// countFixed counts a fixed-size codec's input of total bytes, returning
// the record count and the record's in-memory size. A partial trailing
// record is refused as corrupt, as the codec's own reader would.
func countFixed(codec record.Codec, total int64) (n, maxRec int, err error) {
	size := int64(codec.FixedSize())
	if tail := total % size; tail != 0 {
		return 0, 0, notWhole(codec, int(total/size), fmt.Errorf("%w: truncated %d-byte record: %d trailing bytes",
			record.ErrCorrupt, size, tail))
	}
	return int(total / size), record.Bytes, nil
}

// countVarlen walks a varlen wire stream to its end by its length
// prefixes (record.Varlen.SkipRecord: ReadRecord's checks, without
// building records), returning the record count and the largest single
// record's in-memory size (the 16 prefix bytes plus its encoding). This
// is how ingest is content-length aware: a varlen stream is measured
// record by record, not by dividing a byte total.
func countVarlen(r io.Reader, codec record.Codec) (n, maxRec int, err error) {
	v, ok := codec.(record.Varlen)
	if !ok {
		return 0, 0, fmt.Errorf("jobs: codec %s has no length prefixes to count by", codec.Name())
	}
	br := bufio.NewReaderSize(r, 64<<10)
	maxRec = record.Bytes
	for {
		size, err := v.SkipRecord(br)
		if err == io.EOF {
			return n, maxRec, nil
		}
		if err != nil {
			return 0, 0, notWhole(codec, n, err)
		}
		maxRec = max(maxRec, record.Bytes+size)
		n++
	}
}

// scaledMemNeed converts a job's working memory M into the 16-byte
// record units the server budget is denominated in, scaled by the
// largest record its ingested input actually contains — byte-accurate
// admission for variable-length jobs, exactly M for fixed16 ones.
func scaledMemNeed(memNeed, maxRecBytes int) int {
	if maxRecBytes <= record.Bytes {
		return memNeed
	}
	return int((int64(memNeed)*int64(maxRecBytes) + record.Bytes - 1) / record.Bytes)
}

type specFile struct {
	ID      string `json:"id"`
	Spec    Spec   `json:"spec"`
	Records int    `json:"records"`
	// MaxRecordBytes preserves ingest's largest-record measurement so a
	// recovered job reserves the same byte-accurate memory.
	MaxRecordBytes int `json:"max_record_bytes,omitempty"`
}

// writeSpec commits the job's spec atomically (tmp + rename), after the
// input is durable — the submit commit point.
func (m *Manager) writeSpec(j *Job) error {
	data, err := json.MarshalIndent(specFile{ID: j.id, Spec: j.spec, Records: j.records, MaxRecordBytes: j.maxRecBytes}, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(j.dir, "spec.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(j.dir, "spec.json"))
}

func (m *Manager) register(j *Job) {
	m.mu.Lock()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Get(id); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// Cancel requests cancellation of a job and returns its (possibly
// already terminal) status.
func (m *Manager) Cancel(id string) (Status, error) {
	j, ok := m.Get(id)
	if !ok {
		return Status{}, fmt.Errorf("jobs: no job %q", id)
	}
	j.cancel()
	return j.Status(), nil
}

// Result opens a done job's sorted output for streaming, returning the
// reader and its size in bytes.
func (m *Manager) Result(id string) (io.ReadCloser, int64, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, 0, fmt.Errorf("jobs: no job %q", id)
	}
	st := j.Status()
	if st.State != StateDone {
		return nil, 0, fmt.Errorf("jobs: job %s is %s, result not available", id, st.State)
	}
	if j.dir == "" {
		j.mu.Lock()
		out := j.output
		j.mu.Unlock()
		return io.NopCloser(bytes.NewReader(out)), int64(len(out)), nil
	}
	f, err := os.Open(filepath.Join(j.dir, "output.rec"))
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// Kill tears the server down abruptly: queued jobs are refused their
// reservations, running jobs have their stores closed mid-operation
// (their checkpoints stay on disk), and Kill returns once every job
// goroutine has exited. The manager accepts no further submissions.
// This is the programmatic equivalent of the process dying — a new
// Manager over the same Root resumes every interrupted job.
func (m *Manager) Kill() {
	m.mu.Lock()
	already := m.killed
	m.killed = true
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	if !already {
		m.budget.close(ErrKilled)
		for _, j := range js {
			j.kill(ErrKilled)
		}
	}
	m.wg.Wait()
}

// Drain stops accepting submissions and waits up to window for every
// job already in the system (queued included) to reach a terminal
// state. It reports whether the drain completed: false means the window
// expired with jobs still in flight — the caller then Kills, and the
// interrupted jobs' checkpoints resume under the next incarnation, so
// an expired drain loses nothing a kill would not. A window <= 0 waits
// without bound.
func (m *Manager) Drain(window time.Duration) bool {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	if window <= 0 {
		<-done
		return true
	}
	select {
	case <-done:
		return true
	case <-time.After(window):
		return false
	}
}

// Health returns the server-wide I/O health snapshot (per-disk latency,
// timeouts, hedged reads) accumulated across every job's deadline
// layer; nil when Options.Deadline is unset.
func (m *Manager) Health() *pdisk.HealthStats {
	if m.health == nil {
		return nil
	}
	s := m.health.Snapshot()
	return &s
}

// Close is Kill: an abrupt exit loses no durable job. Callers wanting
// an orderly stop call Drain first and Kill whatever remains.
func (m *Manager) Close() error {
	m.Kill()
	return nil
}

func (m *Manager) isKilled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// run drives one job to a terminal state. A panic in the job's sort ends
// the job failed, not the server: runJob's defers release the job's
// budget and store as the panic unwinds, and a durable job's failed
// marker keeps a restart from running it into the same panic.
func (m *Manager) run(j *Job, resume bool) {
	defer m.wg.Done()
	defer close(j.done)
	defer func() {
		if p := recover(); p != nil {
			m.logf("jobs: %s panicked: %v\n%s", j.id, p, debug.Stack())
			m.finishFailed(j, fmt.Errorf("sort panicked: %v", p))
		}
	}()
	m.runJob(j, resume)
}

func (m *Manager) runJob(j *Job, resume bool) {
	// Admission: block until the job's {M, cores} pair fits in the
	// server budget — both resources granted atomically or neither.
	if err := m.budget.reserve(j.memNeed, j.coreNeed, j.cancelCh); err != nil {
		switch {
		case errors.Is(err, ErrCanceled):
			m.finishCanceled(j)
		case errors.Is(err, ErrKilled):
			m.finishInterrupted(j, err)
		default:
			m.finishFailed(j, err)
		}
		return
	}
	j.setReserved(j.memNeed, j.coreNeed)
	defer func() {
		j.setReserved(0, 0)
		m.budget.release(j.memNeed, j.coreNeed)
	}()

	var store pdisk.Store
	var disks *pdisk.FileStore // the durable job's striped disks; nil for a volatile job
	if j.dir != "" {
		codec, err := record.CodecByName(j.spec.Codec)
		if err != nil { // validated at submit; unreachable
			m.finishFailed(j, err)
			return
		}
		fs, err := pdisk.NewFileStoreCodec(filepath.Join(j.dir, "disks"), j.spec.B, j.spec.D, codec)
		if err != nil {
			m.finishFailed(j, err)
			return
		}
		store, disks = fs, fs
	} else {
		store = pdisk.NewMemStore()
	}
	if m.opts.StoreWrap != nil {
		store = m.opts.StoreWrap(j.id, store)
	}
	j.setStore(store)
	defer func() {
		j.setStore(nil)
		store.Close()
	}()
	// Close the teardown races: a Kill or cancel that landed between our
	// admission and publishing the store found no store to close, so
	// close it ourselves now that it is published.
	if m.isKilled() {
		j.kill(ErrKilled)
	}
	select {
	case <-j.cancelCh:
		j.kill(ErrCanceled)
	default:
	}

	cfg, err := j.spec.Config()
	if err != nil { // validated at submit; unreachable
		m.finishFailed(j, err)
		return
	}
	cfg.Store = store
	cfg.Checkpoint = true
	cfg.Retry = m.opts.Retry
	cfg.Deadline = m.opts.Deadline
	cfg.Gate = m.gate
	cfg.Progress = j.noteProgress

	j.setState(StateRunning)

	var lastErr error
	for attempt := 1; attempt <= m.opts.MaxAttempts; attempt++ {
		j.bumpAttempt()
		stats, err := m.attempt(j, cfg, resume || attempt > 1)
		if err == nil {
			m.finishDone(j, stats, disks)
			return
		}
		if reason := j.killReason(); reason != nil {
			if errors.Is(reason, ErrCanceled) {
				m.finishCanceled(j)
			} else {
				m.finishInterrupted(j, reason)
			}
			return
		}
		lastErr = err
		m.logf("jobs: %s attempt %d/%d failed: %v (resuming from checkpoint)",
			j.id, attempt, m.opts.MaxAttempts, err)
	}
	m.finishFailed(j, fmt.Errorf("after %d attempts: %w", m.opts.MaxAttempts, lastErr))
}

// attempt runs one sort attempt end to end: input stream in, sorted
// stream out, output committed atomically on success.
func (m *Manager) attempt(j *Job, cfg srmsort.Config, resume bool) (srmsort.Stats, error) {
	var in io.Reader
	var closeIn func()
	if j.dir == "" {
		j.mu.Lock()
		in = chunkReader(j.input)
		j.mu.Unlock()
		closeIn = func() {}
	} else {
		f, err := os.Open(filepath.Join(j.dir, "input.rec"))
		if err != nil {
			return srmsort.Stats{}, err
		}
		in = f
		closeIn = func() { f.Close() }
	}
	defer closeIn()

	if j.dir == "" {
		// The sorted output is the input's records in another order, so
		// it has the input's wire size exactly: one allocation, no
		// regrowth.
		buf := bytes.NewBuffer(make([]byte, 0, j.inBytes))
		var stats srmsort.Stats
		var err error
		if resume {
			stats, err = srmsort.ResumeStream(in, buf, cfg)
		} else {
			stats, err = srmsort.SortStream(in, buf, cfg)
		}
		if err != nil {
			return srmsort.Stats{}, err
		}
		j.mu.Lock()
		j.output = buf.Bytes()
		j.mu.Unlock()
		return stats, nil
	}

	tmp := filepath.Join(j.dir, "output.rec.tmp")
	out, err := os.Create(tmp)
	if err != nil {
		return srmsort.Stats{}, err
	}
	var stats srmsort.Stats
	if resume {
		stats, err = srmsort.ResumeStream(in, out, cfg)
	} else {
		stats, err = srmsort.SortStream(in, out, cfg)
	}
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return srmsort.Stats{}, err
	}
	// The rename is the job's commit point: output.rec either exists
	// complete or not at all.
	if err := os.Rename(tmp, filepath.Join(j.dir, "output.rec")); err != nil {
		return srmsort.Stats{}, err
	}
	return stats, nil
}

// finishDone marks a job done. disks, the durable job's FileStore, is
// discarded: its files are deleted without an fsync (runJob's deferred
// Close of the store stack then finds it already closed). Interrupted
// and failed jobs keep their disks for the next attempt.
func (m *Manager) finishDone(j *Job, stats srmsort.Stats, disks *pdisk.FileStore) {
	j.mu.Lock()
	j.state = StateDone
	s := stats
	j.stats = &s
	j.mu.Unlock()
	if j.dir != "" {
		if data, err := json.MarshalIndent(stats, "", "  "); err == nil {
			os.WriteFile(filepath.Join(j.dir, "stats.json"), data, 0o644)
		}
		// The striped disks served their purpose; reclaim the space.
		disks.Remove()
		os.RemoveAll(filepath.Join(j.dir, "disks"))
	}
	m.logf("jobs: %s done (%d records)", j.id, j.records)
}

func (m *Manager) finishFailed(j *Job, err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errText = err.Error()
	j.mu.Unlock()
	if j.dir != "" {
		os.WriteFile(filepath.Join(j.dir, "failed"), []byte(err.Error()+"\n"), 0o644)
	}
	m.logf("jobs: %s failed: %v", j.id, err)
}

func (m *Manager) finishCanceled(j *Job) {
	j.mu.Lock()
	j.state = StateCanceled
	j.errText = ErrCanceled.Error()
	j.mu.Unlock()
	if j.dir != "" {
		os.WriteFile(filepath.Join(j.dir, "canceled"), []byte("canceled\n"), 0o644)
	}
	m.logf("jobs: %s canceled", j.id)
}

// finishInterrupted marks a job cut down by server teardown. No marker
// is written: on disk the job is merely incomplete, so the next
// incarnation resumes it.
func (m *Manager) finishInterrupted(j *Job, reason error) {
	j.mu.Lock()
	j.state = StateFailed
	j.errText = reason.Error()
	j.mu.Unlock()
}

// recover reloads Root: terminal jobs become fetchable again, incomplete
// jobs restart (resuming from their checkpoint manifest when one
// survived the crash).
func (m *Manager) recover() error {
	entries, err := os.ReadDir(m.opts.Root)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "job-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(m.opts.Root, name)
		var sf specFile
		data, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil || json.Unmarshal(data, &sf) != nil {
			// The submit never committed; the directory is garbage.
			os.RemoveAll(dir)
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "job-%d", &n); err == nil && n > m.nextID {
			m.nextID = n
		}
		spec := sf.Spec.withDefaults(m.opts.Defaults)
		memNeed, coreNeed, err := m.validate(spec)
		memNeed = scaledMemNeed(memNeed, sf.MaxRecordBytes)
		if err == nil && memNeed > m.budget.Total() {
			err = fmt.Errorf("%w: job needs M=%d record units for its %d-byte records, server budget is %d",
				ErrOverBudget, memNeed, sf.MaxRecordBytes, m.budget.Total())
		}
		j := &Job{
			id:          name,
			dir:         dir,
			spec:        spec,
			records:     sf.Records,
			memNeed:     memNeed,
			coreNeed:    coreNeed,
			maxRecBytes: sf.MaxRecordBytes,
			cancelCh:    make(chan struct{}),
			done:        make(chan struct{}),
		}
		switch {
		case err != nil:
			// The server shrank beneath the job (smaller budget or
			// fewer gated disks than at submit).
			j.state = StateFailed
			j.errText = err.Error()
			close(j.done)
		case exists(filepath.Join(dir, "canceled")):
			j.state = StateCanceled
			j.errText = ErrCanceled.Error()
			close(j.done)
		case exists(filepath.Join(dir, "failed")):
			j.state = StateFailed
			if msg, err := os.ReadFile(filepath.Join(dir, "failed")); err == nil {
				j.errText = strings.TrimSpace(string(msg))
			}
			close(j.done)
		case exists(filepath.Join(dir, "output.rec")):
			j.state = StateDone
			if data, err := os.ReadFile(filepath.Join(dir, "stats.json")); err == nil {
				var st srmsort.Stats
				if json.Unmarshal(data, &st) == nil {
					j.stats = &st
				}
			}
			close(j.done)
		default:
			// Interrupted mid-flight by the previous incarnation's
			// death: this one genuinely resumes it.
			j.state = StateQueued
			j.resumed = true
		}
		m.register(j)
		if !j.state.Terminal() {
			m.logf("jobs: resuming %s (%d records)", j.id, j.records)
			m.wg.Add(1)
			go m.run(j, true)
		}
	}
	return nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
