package jobs

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"srmsort/internal/pdisk"
)

// gatedMemStore parks every read until the gate closes — a job over it
// runs forever from the manager's point of view. Embedding the concrete
// MemStore keeps the optional capabilities (manifest, frontier) intact.
type gatedMemStore struct {
	*pdisk.MemStore
	gate chan struct{}
}

func (g *gatedMemStore) ReadBlock(a pdisk.BlockAddr) (pdisk.StoredBlock, error) {
	<-g.gate
	return g.MemStore.ReadBlock(a)
}

// A job run under the deadline layer leaves none of the layer's
// executors behind: the sort's teardown stops them even though the job's
// store outlives the sort's System.
func TestDeadlineJobNoLeak(t *testing.T) {
	m, err := NewManager(Options{
		MemoryBudget: 100_000,
		Defaults:     testSpec(1),
		Deadline:     &pdisk.DeadlinePolicy{OpDeadline: time.Minute, HedgeAfter: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	in, want := genInput(t, testSpec(1), 2000, 13)
	base := runtime.NumGoroutine()
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	rc, _, err := m.Result(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("result differs (%v): %d bytes vs want %d", err, len(got), len(want))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A drain with no in-flight work completes immediately, refuses further
// submissions with ErrDraining, and the HTTP surface maps that to 503.
func TestDrainCleanRefusesSubmissions(t *testing.T) {
	m, err := NewManager(Options{
		MemoryBudget: 100_000,
		Defaults:     testSpec(1),
		Deadline:     &pdisk.DeadlinePolicy{OpDeadline: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	in, _ := genInput(t, testSpec(1), 1500, 5)
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Drain(0) {
		t.Fatal("unbounded drain reported incomplete")
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job after drain: %s (%s)", st.State, st.Error)
	}
	if _, err := m.Submit(Spec{}, bytes.NewReader(in)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	// The deadline layer tracked the drained job's I/O server-wide.
	h := m.Health()
	if h == nil {
		t.Fatal("Health() = nil with Options.Deadline set")
	}
	var ops int64
	for _, d := range h.PerDisk {
		ops += d.Ops
	}
	if ops == 0 {
		t.Fatal("health tracker saw no I/O from the drained job")
	}
	if s := m.Stats(); s.IOHealth == nil {
		t.Fatal("ServerStats.IOHealth = nil with Options.Deadline set")
	}
	// The HTTP surface: submissions during a drain are the server's
	// fault, not the client's.
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs while draining = %d, want 503", resp.StatusCode)
	}
}

// A drain whose window expires with a job still running reports false;
// the job is NOT severed by the drain itself (that is the caller's Kill).
func TestDrainWindowExpires(t *testing.T) {
	gate := make(chan struct{})
	m, err := NewManager(Options{
		MemoryBudget: 100_000,
		Defaults:     testSpec(1),
		StoreWrap: func(jobID string, inner pdisk.Store) pdisk.Store {
			return &gatedMemStore{MemStore: inner.(*pdisk.MemStore), gate: gate}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, want := genInput(t, testSpec(1), 1500, 6)
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Drain(50 * time.Millisecond) {
		t.Fatal("drain reported complete with a job parked on its store")
	}
	if st := j.Status(); st.State.Terminal() {
		t.Fatalf("expired drain must not sever the job, but state = %s", st.State)
	}
	// Releasing the store lets the job finish normally: an expired drain
	// window changed nothing about the job itself.
	close(gate)
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("released job: %s (%s)", st.State, st.Error)
	}
	rc, _, err := m.Result(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	if _, err := got.ReadFrom(rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("result differs after drain-then-release")
	}
	m.Kill()
}
