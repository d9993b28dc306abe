// Package chaos is a deterministic fault-injection harness for the sort
// stack: it runs a sort under a seeded schedule of transient I/O
// failures and simulated mid-write process kills, drives the recovery
// loop (retry → checkpoint → resume) exactly as an operator would, and
// asserts the final output equals the fault-free run byte for byte.
//
// Everything is a pure function of the cell's seed: the fault schedule,
// the kill point, the retry jitter (backoff sleeps are no-ops under the
// harness) and SRM's placement randomness, so a failing cell replays
// exactly.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// Cell is one point of the chaos matrix: an algorithm on a backend with
// D disks, under a transient-fault probability and optionally one
// simulated process kill (a torn write mid-sort).
type Cell struct {
	Algorithm srmsort.Algorithm
	Backend   srmsort.Backend
	D         int
	// Records is the input size; Seed drives input, faults, placement.
	Records int
	Seed    int64
	// FailProb is the per-operation transient failure probability applied
	// to reads, writes and frees alike.
	FailProb float64
	// Kill, when true, tears a write roughly 60% of the way through the
	// sort — the simulated process dies and the harness must resume.
	Kill bool
	// Cores is the sort's Config.Cores (0 = the library default,
	// GOMAXPROCS). Output must be byte-identical at any value.
	Cores int
	// ResumeCores, when non-zero, switches every resume attempt to a
	// DIFFERENT core count than the original sort ran with — the
	// checkpoint manifest records only I/O state, so a recovering
	// process with more (or fewer) cores must still reproduce the
	// fault-free bytes exactly.
	ResumeCores int
	// Straggle turns on the seeded heavy-tail (Pareto) latency model for
	// every operation — microsecond-scale, so cells finish in bounded
	// wall-clock — normally paired with OpDeadline/HedgeAfter so hedges
	// and timeouts genuinely fire during the run.
	Straggle bool
	// StuckRead arms one read roughly halfway through the sort to hang
	// for 250 ms. With OpDeadline set, the deadline layer abandons it,
	// the retry layer re-issues it, and the sort must still finish
	// byte-identical to the fault-free run. Reads only, deliberately: a
	// deadline-abandoned WRITE landing after a resume has reallocated
	// its address would corrupt the resumed state, so stuck writes are
	// exercised in the unit tests, never raced against recovery.
	StuckRead bool
	// OpDeadline and HedgeAfter configure the deadline/hedging layer of
	// the faulted run (the fault-free reference always runs without one;
	// the layer must not change a single output byte).
	OpDeadline time.Duration
	HedgeAfter time.Duration
	// Codec selects the cell's record codec ("" = fixed16). Varlen cells
	// ("varlen", "varlen+flate") carry variable-length records generated
	// from the same seed; kills, resumes and the byte-identity check run
	// over the codec's wire encoding.
	Codec string
	// Dir holds the file backend's disks; required iff Backend is
	// FileBackend.
	Dir string
	// MaxAttempts bounds the sort→resume loop (0 = default 12): residual
	// retry exhaustion under a heavy fault schedule just triggers another
	// resume, but a harness bug must not loop forever.
	MaxAttempts int
}

// Result reports what it took to complete a cell.
type Result struct {
	// Attempts is the number of Sort/Resume invocations that ran
	// (1 = no recovery needed).
	Attempts int
	// Killed reports whether the armed kill fired.
	Killed bool
}

// config is the cell's sort configuration minus the store stack.
func (c Cell) config() srmsort.Config {
	return srmsort.Config{
		D: c.D, B: 8, K: 3,
		Algorithm: c.Algorithm,
		Seed:      c.Seed,
		Cores:     c.Cores,
		Codec:     c.Codec,
	}
}

// varlen reports whether the cell carries variable-length records.
func (c Cell) varlen() bool {
	return c.Codec != "" && c.Codec != "fixed16"
}

// input generates the cell's records deterministically from its seed.
func (c Cell) input() []srmsort.Record {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	in := make([]srmsort.Record, c.Records)
	for i := range in {
		in[i] = srmsort.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	return in
}

// inputVar generates the cell's variable-length records deterministically
// from its seed: short-alphabet keys so prefix-word ties occur under
// fault and resume pressure too.
func (c Cell) inputVar() []srmsort.VarRecord {
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	in := make([]srmsort.VarRecord, c.Records)
	for i := range in {
		key := make([]byte, 3+rng.Intn(14))
		for j := range key {
			key[j] = byte('a' + rng.Intn(4))
		}
		payload := make([]byte, rng.Intn(20))
		for j := range payload {
			payload[j] = byte(rng.Intn(256))
		}
		in[i] = srmsort.VarRecord{Key: key, Payload: payload}
	}
	return in
}

// sortEncoded runs the cell's sort (or, with resume set, a resume) under
// cfg and returns the sorted output in the codec's wire encoding — one
// byte-comparable representation for fixed and variable-length cells.
func (c Cell) sortEncoded(cfg srmsort.Config, resume bool) ([]byte, error) {
	var buf bytes.Buffer
	if c.varlen() {
		in := c.inputVar()
		var out []srmsort.VarRecord
		var err error
		if resume {
			out, _, err = srmsort.ResumeVar(in, cfg)
		} else {
			out, _, err = srmsort.SortVar(in, cfg)
		}
		if err != nil {
			return nil, err
		}
		if err := srmsort.WriteVarRecords(&buf, out); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	in := c.input()
	var out []srmsort.Record
	var err error
	if resume {
		out, _, err = srmsort.Resume(in, cfg)
	} else {
		out, _, err = srmsort.Sort(in, cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := srmsort.WriteRecords(&buf, out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// faultConfig is the cell's steady-state fault schedule (no kill, no
// stuck op — those are armed per incarnation).
func (c Cell) faultConfig() pdisk.FaultConfig {
	fc := pdisk.FaultConfig{
		Seed:          c.Seed,
		ReadFailProb:  c.FailProb,
		WriteFailProb: c.FailProb,
		FreeFailProb:  c.FailProb,
	}
	if c.Straggle {
		// Real (not injected) sleeps, scaled so the p99.9 tail is a few
		// milliseconds: big enough to trip a 1–20 ms deadline or hedge,
		// small enough that a cell's thousands of ops stay sub-second.
		fc.ParetoScale = 40 * time.Microsecond
		fc.ParetoAlpha = 1.1
		fc.ParetoCap = 4 * time.Millisecond
	}
	return fc
}

// deadlinePolicy is the cell's deadline/hedging layer, nil when neither
// knob is set.
func (c Cell) deadlinePolicy() *pdisk.DeadlinePolicy {
	if c.OpDeadline <= 0 && c.HedgeAfter <= 0 {
		return nil
	}
	return &pdisk.DeadlinePolicy{OpDeadline: c.OpDeadline, HedgeAfter: c.HedgeAfter}
}

// newInner builds the cell's backend store, codec-aware for the file
// backend (the block layout depends on the codec's encoded sizes).
func (c Cell) newInner() (pdisk.Store, error) {
	switch c.Backend {
	case srmsort.FileBackend:
		if c.Dir == "" {
			return nil, fmt.Errorf("chaos: file backend needs Dir")
		}
		codec, err := record.CodecByName(c.Codec)
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		return pdisk.NewFileStoreCodec(c.Dir, 8, c.D, codec)
	default:
		return pdisk.NewMemStore(), nil
	}
}

// retryPolicy is the harness's retry policy: deterministic backoff with
// no real sleeping, seeded from the cell.
func (c Cell) retryPolicy() *pdisk.RetryPolicy {
	p := pdisk.DefaultRetryPolicy()
	p.Seed = c.Seed
	p.Sleep = func(time.Duration) {}
	return &p
}

// Run executes the cell: a fault-free reference sort, then the faulted
// sort with as many resumes as the fault schedule demands, then the
// byte-identity check. It returns how much recovery was needed.
func Run(c Cell) (Result, error) {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 12
	}
	want, err := c.sortEncoded(c.config(), false)
	if err != nil {
		return Result{}, fmt.Errorf("chaos: reference sort: %w", err)
	}
	return c.runCheckpointed(want)
}

// runCheckpointed drives the full recovery loop: checkpointed sort over
// a fault-injected retrying store; on any failure (kill or residual
// retry exhaustion) the harness resumes, as a supervising process would.
func (c Cell) runCheckpointed(want []byte) (Result, error) {
	inner, err := c.newInner()
	if err != nil {
		return Result{}, err
	}
	defer inner.Close()

	armed := c.faultConfig()
	if c.Kill || c.StuckRead {
		// Learn the op counts fault-free, then arm the counted faults:
		// the tear at ~60% of the writes, the stuck read at ~50% of the
		// reads.
		probe := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
		probeCfg := c.config()
		probeCfg.Store = probe
		probeCfg.Checkpoint = true
		if _, err := c.sortEncoded(probeCfg, false); err != nil {
			return Result{}, fmt.Errorf("chaos: probe sort: %w", err)
		}
		if c.Kill {
			armed.TornWriteAt = probe.OpCount("write") * 3 / 5
		}
		if c.StuckRead {
			armed.StuckReadAt = probe.OpCount("read") / 2
			armed.StuckDelay = 250 * time.Millisecond
		}
		probe.Close()
	}
	fault := pdisk.NewFaultStore(inner, armed)

	cfg := c.config()
	cfg.Store = fault
	cfg.Checkpoint = true
	cfg.Retry = c.retryPolicy()
	cfg.Deadline = c.deadlinePolicy()

	res := Result{}
	out, err := c.sortEncoded(cfg, false)
	res.Attempts = 1
	for err != nil {
		var term *pdisk.TerminalError
		if errors.As(err, &term) {
			res.Killed = true
		}
		if res.Attempts >= c.MaxAttempts {
			return res, fmt.Errorf("chaos: cell still failing after %d attempts: %w", res.Attempts, err)
		}
		// The "process" died (kill) or aborted (retry exhaustion). The
		// next incarnation sees the same store, minus the armed kill —
		// one crash per cell; steady-state transient faults stay on.
		// With ResumeCores set, the incarnation also runs on a different
		// core count than the one that wrote the checkpoint.
		fault.Configure(c.faultConfig())
		rcfg := cfg
		if c.ResumeCores != 0 {
			rcfg.Cores = c.ResumeCores
		}
		out, err = c.sortEncoded(rcfg, true)
		res.Attempts++
	}
	if c.Kill && !res.Killed {
		return res, fmt.Errorf("chaos: armed kill never fired (attempts=%d)", res.Attempts)
	}
	if !bytes.Equal(out, want) {
		return res, fmt.Errorf("chaos: output differs from fault-free run (attempts=%d)", res.Attempts)
	}
	return res, nil
}
