package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
)

// genInput returns n seeded records and their wire encodings, unsorted
// and sorted under spec — the tenant's input and expected download.
func genInput(t testing.TB, spec Spec, n int, seed int64) (in, want []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]srmsort.Record, n)
	for i := range recs {
		recs[i] = srmsort.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	sorted, _, err := srmsort.Sort(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inBuf, wantBuf bytes.Buffer
	if err := srmsort.WriteRecords(&inBuf, recs); err != nil {
		t.Fatal(err)
	}
	if err := srmsort.WriteRecords(&wantBuf, sorted); err != nil {
		t.Fatal(err)
	}
	return inBuf.Bytes(), wantBuf.Bytes()
}

// genRaw returns n seeded records in wire format, with no reference sort
// — for jobs whose output the test never reads (budget blockers).
func genRaw(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]srmsort.Record, n)
	for i := range recs {
		recs[i] = srmsort.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	var buf bytes.Buffer
	if err := srmsort.WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitJob(t testing.TB, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s: timed out (status %+v)", j.ID(), j.Status())
	}
	return j.Status()
}

func testSpec(seed int64) Spec {
	return Spec{Algorithm: "srm", D: 4, B: 8, K: 3, Seed: seed}
}

// TestManagerVolatile: submit → done → result on the in-memory manager.
func TestManagerVolatile(t *testing.T) {
	m, err := NewManager(Options{MemoryBudget: 100_000, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	in, want := genInput(t, testSpec(1), 2000, 11)
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Progress.RecordsOut != 2000 {
		t.Errorf("progress.RecordsOut = %d, want 2000", st.Progress.RecordsOut)
	}
	rc, size, err := m.Result(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	got, _ := io.ReadAll(rc)
	if int64(len(got)) != size || !bytes.Equal(got, want) {
		t.Fatalf("result differs: %d bytes vs want %d", len(got), len(want))
	}
}

// TestAdmissionBudget: with a budget that fits exactly one job, several
// jobs complete correctly and the ledger's peak never exceeds the total.
// TestManagerVarlenJob: a varlen job round-trips end to end — submit →
// prefix-walking ingest → byte-scaled admission → sorted varlen result
// — on both the volatile and the durable manager.
func TestManagerVarlenJob(t *testing.T) {
	spec := testSpec(1)
	spec.Codec = "varlen"
	rng := rand.New(rand.NewSource(7))
	vrecs := make([]srmsort.VarRecord, 1500)
	for i := range vrecs {
		key := make([]byte, 3+rng.Intn(12))
		for j := range key {
			key[j] = byte('a' + rng.Intn(4))
		}
		payload := make([]byte, rng.Intn(24))
		for j := range payload {
			payload[j] = byte(i + j)
		}
		vrecs[i] = srmsort.VarRecord{Key: key, Payload: payload}
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	sortedVar, _, err := srmsort.SortVar(vrecs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var in, want bytes.Buffer
	if err := srmsort.WriteVarRecords(&in, vrecs); err != nil {
		t.Fatal(err)
	}
	if err := srmsort.WriteVarRecords(&want, sortedVar); err != nil {
		t.Fatal(err)
	}
	_, baseM, err := cfg.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}

	for _, root := range []string{"", t.TempDir()} {
		name := "volatile"
		if root != "" {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			m, err := NewManager(Options{Root: root, MemoryBudget: 2_000_000, Defaults: testSpec(1)})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Kill()
			j, err := m.Submit(spec, bytes.NewReader(in.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if j.memNeed <= baseM {
				t.Errorf("memNeed = %d, want > base M %d (byte-scaled admission)", j.memNeed, baseM)
			}
			st := waitJob(t, j)
			if st.State != StateDone {
				t.Fatalf("state = %s (%s)", st.State, st.Error)
			}
			if st.Records != len(vrecs) {
				t.Errorf("records = %d, want %d (prefix-walking ingest)", st.Records, len(vrecs))
			}
			rc, _, err := m.Result(j.ID())
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			got, err := io.ReadAll(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("result bytes differ from a direct SortVar (%d vs %d bytes)", len(got), want.Len())
			}
		})
	}
}

// TestSubmitVarlenBadInput: truncated varlen wire input is refused at
// submit (the prefix-walking ingest finds the tear).
func TestSubmitVarlenBadInput(t *testing.T) {
	m, err := NewManager(Options{MemoryBudget: 100_000, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	var buf bytes.Buffer
	if err := srmsort.WriteVarRecords(&buf, []srmsort.VarRecord{{Key: []byte("abcdef"), Payload: []byte("xyz")}}); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Codec: "varlen"}
	torn := buf.Bytes()[:buf.Len()-2]
	if _, err := m.Submit(spec, bytes.NewReader(torn)); err == nil || !strings.Contains(err.Error(), "record size") {
		t.Fatalf("err = %v, want record-size refusal", err)
	}
	if _, err := m.Submit(Spec{Codec: "nope"}, bytes.NewReader(nil)); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Fatalf("err = %v, want unknown-codec refusal", err)
	}
}

func TestAdmissionBudget(t *testing.T) {
	cfg, _ := testSpec(1).Config()
	_, mNeed, err := cfg.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{MemoryBudget: mNeed, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	var js []*Job
	var wants [][]byte
	for i := 0; i < 5; i++ {
		in, want := genInput(t, testSpec(1), 1000, int64(100+i))
		j, err := m.Submit(Spec{}, bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
		wants = append(wants, want)
	}
	for i, j := range js {
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %d: state = %s (%s)", i, st.State, st.Error)
		}
		rc, _, err := m.Result(j.ID())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(rc)
		rc.Close()
		if !bytes.Equal(got, wants[i]) {
			t.Fatalf("job %d: wrong output", i)
		}
	}
	total, inUse, peak := m.Budget()
	if peak > total {
		t.Fatalf("budget exceeded: peak %d > total %d", peak, total)
	}
	if peak != mNeed {
		t.Errorf("peak = %d, want %d (exactly one job at a time)", peak, mNeed)
	}
	if inUse != 0 {
		t.Errorf("inUse = %d after all jobs finished, want 0", inUse)
	}
}

// TestSubmitOverBudget: a job whose M alone exceeds the server budget is
// refused at submit, not queued forever.
func TestSubmitOverBudget(t *testing.T) {
	m, err := NewManager(Options{MemoryBudget: 50, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	_, err = m.Submit(Spec{}, bytes.NewReader(nil))
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want over-budget refusal", err)
	}
}

// TestSubmitBadInput: a payload that is not whole records is refused.
func TestSubmitBadInput(t *testing.T) {
	m, err := NewManager(Options{MemoryBudget: 100_000, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	_, err = m.Submit(Spec{}, bytes.NewReader(make([]byte, 17)))
	if err == nil || !strings.Contains(err.Error(), "record size") {
		t.Fatalf("err = %v, want record-size refusal", err)
	}
}

// TestCancelQueued: with the budget held by a running job, a queued
// job's cancel lands while it waits for admission (or, if it won the
// race into running, severs its store) — either way it ends canceled.
func TestCancelQueued(t *testing.T) {
	cfg, _ := testSpec(1).Config()
	_, mNeed, err := cfg.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{MemoryBudget: mNeed, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	// The blocker is big enough that it is still sorting (holding the
	// whole budget) when the cancel below lands.
	jA, err := m.Submit(Spec{}, bytes.NewReader(genRaw(t, 150_000, 1)))
	if err != nil {
		t.Fatal(err)
	}
	inB, _ := genInput(t, testSpec(1), 4000, 2)
	jB, err := m.Submit(Spec{}, bytes.NewReader(inB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(jB.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jB); st.State != StateCanceled {
		t.Fatalf("canceled job state = %s (%s)", st.State, st.Error)
	}
	if st := waitJob(t, jA); st.State != StateDone {
		t.Fatalf("untouched job state = %s (%s)", st.State, st.Error)
	}
}

// TestServerLoad drives the full HTTP surface under concurrency and
// seeded faults: dozens of jobs submitted over the wire against a
// budget that admits only a few at a time, every store fault-injected,
// plus a cancellation and an over-budget refusal. Every surviving job's
// download must equal its fault-free sort, and the ledger must never
// exceed the budget.
func TestServerLoad(t *testing.T) {
	const jobs = 24
	cfg, _ := testSpec(1).Config()
	_, mNeed, err := cfg.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	policy := pdisk.DefaultRetryPolicy()
	policy.Seed = 99
	policy.Sleep = func(time.Duration) {}
	m, err := NewManager(Options{
		Root:         t.TempDir(),
		MemoryBudget: 3 * mNeed,
		// Serial jobs each hold one core slot; give the server enough
		// that memory, not cores, is the contended resource here (the
		// default GOMAXPROCS would serialize the load on a 1-CPU host).
		CoreBudget:  8,
		MaxAttempts: 12,
		Retry:       &policy,
		Defaults:    testSpec(1),
		StoreWrap: func(jobID string, inner pdisk.Store) pdisk.Store {
			var n int64
			fmt.Sscanf(jobID, "job-%d", &n)
			return pdisk.NewFaultStore(inner, pdisk.FaultConfig{
				Seed:          900 + n,
				ReadFailProb:  0.01,
				WriteFailProb: 0.01,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	// Submit concurrently over HTTP.
	type sub struct {
		id   string
		want []byte
	}
	subs := make([]sub, jobs)
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			in, want := genInput(t, testSpec(1), 1200, int64(500+i))
			resp, err := http.Post(srv.URL+"/jobs", "application/octet-stream", bytes.NewReader(in))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				body, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("submit %d: %s: %s", i, resp.Status, body)
				return
			}
			var st Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs <- err
				return
			}
			subs[i] = sub{id: st.ID, want: want}
			errs <- nil
		}(i)
	}
	for i := 0; i < jobs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// An impossible job is refused over the wire with a clear error.
	resp, err := http.Post(srv.URL+"/jobs?d=4&b=8&mem=1000000000", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget submit: %s, want 400", resp.Status)
	}
	resp.Body.Close()

	// Wait for every job over the status endpoint.
	deadline := time.Now().Add(2 * time.Minute)
	for _, s := range subs {
		for {
			resp, err := http.Get(srv.URL + "/jobs/" + s.id)
			if err != nil {
				t.Fatal(err)
			}
			var st Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				if st.State != StateDone {
					t.Fatalf("job %s: %s (%s)", s.id, st.State, st.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s: timed out in state %s", s.id, st.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Download and byte-compare every result.
	for _, s := range subs {
		resp, err := http.Get(srv.URL + "/jobs/" + s.id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %s", s.id, resp.Status)
		}
		if !bytes.Equal(got, s.want) {
			t.Fatalf("job %s: download differs from fault-free sort", s.id)
		}
	}

	// The ledger never exceeded the budget.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.MemoryPeak > stats.MemoryBudget {
		t.Fatalf("budget exceeded: peak %d > %d", stats.MemoryPeak, stats.MemoryBudget)
	}
	if stats.MemoryPeak < 2*mNeed {
		t.Errorf("peak = %d: the load never ran at least two jobs concurrently", stats.MemoryPeak)
	}
	if stats.Jobs[StateDone] != jobs {
		t.Errorf("done = %d, want %d", stats.Jobs[StateDone], jobs)
	}
}

// TestHTTPCancelAndErrors covers the remaining wire surface: status 404,
// 400 on the removed workers parameter, result 409 before completion,
// DELETE cancel, healthz.
func TestHTTPCancelAndErrors(t *testing.T) {
	cfg, _ := testSpec(1).Config()
	_, mNeed, err := cfg.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{MemoryBudget: mNeed, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(srv.URL + "/jobs/nope"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("missing job: %v %v", err, resp.Status)
	} else {
		resp.Body.Close()
	}
	// The per-job workers knob is gone: admission could not charge the
	// merges it would run concurrently.
	if resp, err := http.Post(srv.URL+"/jobs?workers=2", "application/octet-stream", bytes.NewReader(nil)); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("workers=2: %v %v", err, resp.Status)
	} else {
		resp.Body.Close()
	}

	// Occupy the budget with a long-running blocker, then queue a second
	// job and cancel it by wire while the blocker still holds the budget.
	jA, err := m.Submit(Spec{}, bytes.NewReader(genRaw(t, 150_000, 1)))
	if err != nil {
		t.Fatal(err)
	}
	inB, _ := genInput(t, testSpec(1), 3000, 2)
	respB, err := http.Post(srv.URL+"/jobs", "application/octet-stream", bytes.NewReader(inB))
	if err != nil {
		t.Fatal(err)
	}
	var stB Status
	if err := json.NewDecoder(respB.Body).Decode(&stB); err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()

	// Result before done: 409.
	if resp, err := http.Get(srv.URL + "/jobs/" + stB.ID + "/result"); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: %v %v", err, resp.Status)
	} else {
		resp.Body.Close()
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+stB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	jB, _ := m.Get(stB.ID)
	if st := waitJob(t, jB); st.State != StateCanceled {
		t.Fatalf("state after DELETE = %s", st.State)
	}
	if st := waitJob(t, jA); st.State != StateDone {
		t.Fatalf("job A = %s (%s)", st.State, st.Error)
	}
}

// TestBudgetFIFO exercises the ledger directly: grants are FIFO, a large
// waiter is not starved, cancellation abandons a queued waiter, and the
// peak never exceeds the total.
func TestBudgetFIFO(t *testing.T) {
	b := newBudget(10, 16)
	if err := b.reserve(6, 1, nil); err != nil {
		t.Fatal(err)
	}
	// A big reservation queues; smaller ones behind it must not jump it.
	bigDone := make(chan error, 1)
	go func() { bigDone <- b.reserve(8, 1, nil) }()
	for b.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	smallDone := make(chan error, 1)
	go func() { smallDone <- b.reserve(2, 1, nil) }()
	select {
	case <-smallDone:
		t.Fatal("small reservation jumped the FIFO queue")
	case <-time.After(20 * time.Millisecond):
	}
	b.release(6, 1)
	if err := <-bigDone; err != nil {
		t.Fatal(err)
	}
	if err := <-smallDone; err != nil {
		t.Fatal(err)
	}
	if got := b.InUse(); got != 10 {
		t.Fatalf("InUse = %d, want 10", got)
	}
	if peak := b.Peak(); peak > b.Total() {
		t.Fatalf("peak %d > total %d", peak, b.Total())
	}
	// Cancellation abandons a queued waiter.
	cancel := make(chan struct{})
	cErr := make(chan error, 1)
	go func() { cErr <- b.reserve(5, 1, cancel) }()
	for b.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(cancel)
	if err := <-cErr; err != ErrCanceled {
		t.Fatalf("canceled reserve = %v, want ErrCanceled", err)
	}
	b.release(8, 1)
	b.release(2, 1)
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d after releases, want 0", got)
	}
}

// TestBudgetCores pins the dual-resource admission: a job that fits in
// memory but not in cores queues (and vice versa), both resources of one
// reservation are granted and returned atomically, and a queued head
// blocks followers even when they would fit (one FIFO for both ledgers).
func TestBudgetCores(t *testing.T) {
	b := newBudget(100, 4)
	if err := b.reserve(10, 3, nil); err != nil {
		t.Fatal(err)
	}
	// Memory fits (10+10 <= 100) but cores don't (3+2 > 4): must queue.
	waitDone := make(chan error, 1)
	go func() { waitDone <- b.reserve(10, 2, nil) }()
	for b.queueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	// A follower that fits both ledgers must still wait behind the head.
	tinyDone := make(chan error, 1)
	go func() { tinyDone <- b.reserve(1, 1, nil) }()
	select {
	case <-waitDone:
		t.Fatal("core-starved reservation admitted while cores were exhausted")
	case <-tinyDone:
		t.Fatal("follower jumped the dual-resource FIFO queue")
	case <-time.After(20 * time.Millisecond):
	}
	b.release(10, 3)
	if err := <-waitDone; err != nil {
		t.Fatal(err)
	}
	if err := <-tinyDone; err != nil {
		t.Fatal(err)
	}
	if got := b.CoresInUse(); got != 3 {
		t.Fatalf("CoresInUse = %d, want 3", got)
	}
	if peak := b.CoresPeak(); peak > b.CoresTotal() {
		t.Fatalf("cores peak %d > total %d", peak, b.CoresTotal())
	}
	// Over-budget cores fail fast rather than queueing forever.
	if err := b.reserve(1, 5, nil); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("reserve(1, 5) = %v, want ErrOverBudget", err)
	}
	b.release(10, 2)
	b.release(1, 1)
	if got, c := b.InUse(), b.CoresInUse(); got != 0 || c != 0 {
		t.Fatalf("after releases: mem %d cores %d in use, want 0/0", got, c)
	}
}

// TestDoneJobDiscardsDisks: a durable job that finishes discards its
// striped disks (deleted, not fsynced first) and keeps only what serves
// its result, which a restarted manager still serves byte-identically.
func TestDoneJobDiscardsDisks(t *testing.T) {
	root := t.TempDir()
	opts := Options{Root: root, MemoryBudget: 100_000, Defaults: testSpec(1)}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	in, want := genInput(t, testSpec(1), 2000, 13)
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	m.Kill()
	if _, err := os.Stat(filepath.Join(root, j.ID(), "disks")); !os.IsNotExist(err) {
		t.Fatalf("done job's disks/ survived: stat err = %v", err)
	}

	m2, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatal("done job not recovered")
	}
	if st := waitJob(t, j2); st.State != StateDone {
		t.Fatalf("recovered state = %s (%s)", st.State, st.Error)
	}
	rc, _, err := m2.Result(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got, _ := io.ReadAll(rc); !bytes.Equal(got, want) {
		t.Fatal("result served after restart differs")
	}
}

// TestRecoverLegacyWorkersSpec: a job directory whose spec.json still
// carries the removed per-job "workers" field recovers on restart; the
// stale field is ignored.
func TestRecoverLegacyWorkersSpec(t *testing.T) {
	root := t.TempDir()
	opts := Options{Root: root, MemoryBudget: 100_000, Defaults: testSpec(1)}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	in, want := genInput(t, testSpec(1), 2000, 12)
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	m.Kill()

	path := filepath.Join(root, j.ID(), "spec.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sf map[string]any
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	sf["spec"].(map[string]any)["workers"] = 4
	if data, err = json.Marshal(sf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatal("legacy job not recovered")
	}
	if st := waitJob(t, j2); st.State != StateDone {
		t.Fatalf("recovered state = %s (%s)", st.State, st.Error)
	}
	rc, _, err := m2.Result(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got, _ := io.ReadAll(rc); !bytes.Equal(got, want) {
		t.Fatal("recovered result differs")
	}
}
