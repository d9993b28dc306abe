package chaos

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"srmsort"
	"srmsort/internal/jobs"
	"srmsort/internal/pdisk"
)

// ServerCell is one server-level chaos scenario: a sortd job manager
// under many concurrent tenants, a seeded transient-fault schedule on
// every job's store, and one or more abrupt server teardowns mid-flight.
// The pass criterion is the service-level version of the library's: after
// the final incarnation drains, every job's output must be byte-identical
// to a fault-free single-job sort of its input, and the admission
// ledger's high-water mark must never have exceeded the budget.
type ServerCell struct {
	// Jobs is how many tenants submit; RecordsPerJob each input's size.
	Jobs          int
	RecordsPerJob int
	// Seed drives inputs, per-job fault schedules and placement.
	Seed int64
	// FailProb is the per-operation transient failure probability on
	// every job's store.
	FailProb float64
	// Budget is the server memory budget in records; it should admit
	// only a fraction of the jobs at once so admission control is
	// actually exercised. 0 sizes it to roughly three concurrent jobs.
	Budget int
	// Kills is how many teardown/restart cycles to inflict while jobs
	// are still in flight.
	Kills int
	// DrainWindow, when > 0, precedes every kill with a Drain of that
	// window — deliberately sized to expire with jobs still running, so
	// each teardown is a drain-interrupted kill: submissions already
	// refused, jobs severed mid-drain, and the next incarnation must
	// still resume everything.
	DrainWindow time.Duration
	// OpDeadline and HedgeAfter, when set, give every incarnation's jobs
	// the deadline/hedging layer (jobs.Options.Deadline), so the resume
	// path is exercised with abandoned and hedged I/O in flight.
	OpDeadline time.Duration
	HedgeAfter time.Duration
}

// ServerResult reports what the scenario took.
type ServerResult struct {
	// Restarts is the number of server incarnations beyond the first.
	Restarts int
	// Resumed counts jobs that finished only after surviving at least
	// one server teardown.
	Resumed int
	// PeakMemory is the admission ledger's high-water mark across all
	// incarnations (records); callers assert PeakMemory <= Budget.
	PeakMemory int
	// Budget echoes the budget actually used.
	Budget int
}

// serverSpec is the geometry every job in the matrix uses — small enough
// that 20+ jobs with faults stay fast, large enough for multi-pass merges.
// Every third seed sorts with PSV instead of SRM, so the matrix resumes
// PSV jobs from their checkpoints too.
func serverSpec(seed int64) jobs.Spec {
	alg := "srm"
	if seed%3 == 0 {
		alg = "psv"
	}
	return jobs.Spec{Algorithm: alg, D: 4, B: 8, K: 3, Seed: seed}
}

// RunServer executes the scenario with job state rooted at root.
func RunServer(c ServerCell, root string) (ServerResult, error) {
	if c.Jobs < 1 {
		return ServerResult{}, fmt.Errorf("chaos: ServerCell.Jobs = %d", c.Jobs)
	}
	if c.Budget == 0 {
		cfg, err := serverSpec(c.Seed).Config()
		if err != nil {
			return ServerResult{}, err
		}
		_, m, err := cfg.MergeOrder()
		if err != nil {
			return ServerResult{}, err
		}
		c.Budget = 3 * m
	}

	// Fault-free references: what each tenant must eventually download.
	inputs := make([][]byte, c.Jobs)
	wants := make([][]byte, c.Jobs)
	for i := 0; i < c.Jobs; i++ {
		seed := c.Seed + int64(i)*101
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		in := make([]srmsort.Record, c.RecordsPerJob)
		for k := range in {
			in[k] = srmsort.Record{Key: rng.Uint64(), Val: uint64(k)}
		}
		cfg, err := serverSpec(seed).Config()
		if err != nil {
			return ServerResult{}, err
		}
		want, _, err := srmsort.Sort(in, cfg)
		if err != nil {
			return ServerResult{}, fmt.Errorf("chaos: reference sort %d: %w", i, err)
		}
		var inBuf, wantBuf bytes.Buffer
		if err := srmsort.WriteRecords(&inBuf, in); err != nil {
			return ServerResult{}, err
		}
		if err := srmsort.WriteRecords(&wantBuf, want); err != nil {
			return ServerResult{}, err
		}
		inputs[i], wants[i] = inBuf.Bytes(), wantBuf.Bytes()
	}

	opts := func() jobs.Options {
		policy := pdisk.DefaultRetryPolicy()
		policy.Seed = c.Seed
		policy.Sleep = func(time.Duration) {} // deterministic, no real waiting
		var deadline *pdisk.DeadlinePolicy
		if c.OpDeadline > 0 || c.HedgeAfter > 0 {
			deadline = &pdisk.DeadlinePolicy{OpDeadline: c.OpDeadline, HedgeAfter: c.HedgeAfter}
		}
		return jobs.Options{
			Root:         root,
			MemoryBudget: c.Budget,
			// Memory is the contended resource in these cells; give every
			// job a core slot so admission order is budget-driven on any
			// host.
			CoreBudget:  c.Jobs,
			MaxAttempts: 12,
			Retry:       &policy,
			Deadline:    deadline,
			Defaults:    serverSpec(c.Seed),
			StoreWrap: func(jobID string, inner pdisk.Store) pdisk.Store {
				var fs int64
				fmt.Sscanf(jobID, "job-%d", &fs)
				return pdisk.NewFaultStore(inner, pdisk.FaultConfig{
					Seed:          c.Seed + fs*7,
					ReadFailProb:  c.FailProb,
					WriteFailProb: c.FailProb,
					FreeFailProb:  c.FailProb,
				})
			},
		}
	}

	var res ServerResult
	res.Budget = c.Budget

	m, err := jobs.NewManager(opts())
	if err != nil {
		return res, err
	}
	ids := make([]string, c.Jobs)
	for i := range inputs {
		j, err := m.Submit(serverSpec(c.Seed+int64(i)*101), bytes.NewReader(inputs[i]))
		if err != nil {
			m.Kill()
			return res, fmt.Errorf("chaos: submit %d: %w", i, err)
		}
		ids[i] = j.ID()
	}

	// Teardown/restart cycles: each kill fires while done < Jobs, so
	// some jobs are provably mid-flight (queued or mid-merge) when the
	// server dies; they must resume in the next incarnation.
	for kill := 0; kill < c.Kills; kill++ {
		threshold := (kill + 1) * c.Jobs / (c.Kills + 1)
		if err := waitDone(m, threshold, &res); err != nil {
			m.Kill()
			return res, err
		}
		if c.DrainWindow > 0 {
			// A drain that expires mid-flight: submissions are already
			// refused when the kill lands, the severed jobs resume next
			// incarnation. (Completing within the window is fine too —
			// then the kill simply finds nothing to sever.)
			m.Drain(c.DrainWindow)
		}
		m.Kill()
		notePeak(m, &res)
		m, err = jobs.NewManager(opts())
		if err != nil {
			return res, err
		}
		res.Restarts++
	}
	if err := waitDone(m, c.Jobs, &res); err != nil {
		m.Kill()
		return res, err
	}
	notePeak(m, &res)

	// Byte-identity: every tenant downloads exactly the fault-free sort.
	for i, id := range ids {
		st, ok := m.Get(id)
		if !ok {
			m.Kill()
			return res, fmt.Errorf("chaos: job %s vanished", id)
		}
		status := st.Status()
		if status.State != jobs.StateDone {
			m.Kill()
			return res, fmt.Errorf("chaos: job %s ended %s: %s", id, status.State, status.Error)
		}
		if status.Resumed {
			res.Resumed++
		}
		rc, _, err := m.Result(id)
		if err != nil {
			m.Kill()
			return res, fmt.Errorf("chaos: result %s: %w", id, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			m.Kill()
			return res, err
		}
		if !bytes.Equal(got, wants[i]) {
			m.Kill()
			return res, fmt.Errorf("chaos: job %s output differs from fault-free sort (%d vs %d bytes)",
				id, len(got), len(wants[i]))
		}
	}
	m.Kill()
	return res, nil
}

// waitDone polls until at least n jobs are done (not merely terminal —
// a failed job is a scenario failure, reported immediately).
func waitDone(m *jobs.Manager, n int, res *ServerResult) error {
	deadline := time.Now().Add(4 * time.Minute)
	for {
		done := 0
		for _, st := range m.List() {
			switch st.State {
			case jobs.StateDone:
				done++
			case jobs.StateFailed, jobs.StateCanceled:
				return fmt.Errorf("chaos: job %s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
		notePeak(m, res)
		if done >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: timed out waiting for %d done jobs (have %d)", n, done)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func notePeak(m *jobs.Manager, res *ServerResult) {
	if _, _, peak := m.Budget(); peak > res.PeakMemory {
		res.PeakMemory = peak
	}
}
