package jobs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"srmsort/internal/pdisk"
)

// writeGate parks a job's block writes once the job has saved its first
// checkpoint, until open is closed: a kill or cancel then lands on a
// transfer in flight, mid-merge. parked is closed when the first write
// parks, closed when the job's store is closed.
type writeGate struct {
	checkpointed         atomic.Bool
	parked, closed, open chan struct{}
	parkOnce, closeOnce  sync.Once
}

func newWriteGate() *writeGate {
	return &writeGate{parked: make(chan struct{}), closed: make(chan struct{}), open: make(chan struct{})}
}

func (g *writeGate) write() {
	if g.checkpointed.Load() {
		g.parkOnce.Do(func() { close(g.parked) })
		<-g.open
	}
}

func (g *writeGate) close() { g.closeOnce.Do(func() { close(g.closed) }) }

// await fails the test if ch is not closed within a minute.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(time.Minute):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// gatedStore puts a writeGate over a job's store.
type gatedStore struct {
	recoverableStore
	g *writeGate
}

func (s gatedStore) WriteBlock(a pdisk.BlockAddr, b pdisk.StoredBlock) error {
	s.g.write()
	return s.recoverableStore.WriteBlock(a, b)
}

func (s gatedStore) SaveManifest(data []byte) error {
	defer s.g.checkpointed.Store(true)
	return s.recoverableStore.SaveManifest(data)
}

func (s gatedStore) Close() error {
	defer s.g.close()
	return s.recoverableStore.Close()
}

// TestKillLandsOnInFlightWrite: Kill closes a durable job's store while
// one of its writes is parked inside it. Released, the write fails on the
// closed store and the job ends interrupted — failed with ErrKilled and
// no marker on disk — and a new Manager over the same root resumes it to
// the bytes of an uninterrupted sort.
func TestKillLandsOnInFlightWrite(t *testing.T) {
	root := t.TempDir()
	in, want := genInput(t, testSpec(1), 6000, 17)
	g := newWriteGate()
	m, err := NewManager(Options{
		Root:         root,
		MemoryBudget: 100_000,
		Defaults:     testSpec(1),
		StoreWrap: func(_ string, inner pdisk.Store) pdisk.Store {
			return gatedStore{recoverableStore: inner.(recoverableStore), g: g}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	await(t, g.parked, "a write to park")
	killed := make(chan struct{})
	go func() {
		m.Kill()
		close(killed)
	}()
	await(t, g.closed, "Kill to close the job's store")
	close(g.open)
	await(t, killed, "Kill to return")
	if st := j.Status(); st.State != StateFailed || st.Error != ErrKilled.Error() {
		t.Fatalf("killed job: %s (%s), want failed with %q", st.State, st.Error, ErrKilled)
	}
	for _, marker := range []string{"failed", "canceled", "output.rec"} {
		if _, err := os.Stat(filepath.Join(root, j.ID(), marker)); err == nil {
			t.Fatalf("the interrupted job left %s behind", marker)
		}
	}

	m2, err := NewManager(Options{Root: root, MemoryBudget: 100_000, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j.ID())
	}
	if st := waitJob(t, j2); st.State != StateDone || !st.Resumed {
		t.Fatalf("after restart: %s (%s), resumed=%v; want done and resumed", st.State, st.Error, st.Resumed)
	}
	rc, _, err := m2.Result(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from an uninterrupted sort (%v)", err)
	}
}

// TestDeleteCancelsRunningVolatileJob: DELETE /jobs/{id} closes a
// running volatile job's store under a parked write. The job ends
// canceled, and the manager goes on to sort the next job.
func TestDeleteCancelsRunningVolatileJob(t *testing.T) {
	g := newWriteGate()
	var first atomic.Bool
	m, err := NewManager(Options{
		MemoryBudget: 100_000,
		Defaults:     testSpec(1),
		StoreWrap: func(_ string, inner pdisk.Store) pdisk.Store {
			if first.Swap(true) {
				return inner
			}
			return gatedStore{recoverableStore: inner.(recoverableStore), g: g}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	in, want := genInput(t, testSpec(1), 6000, 19)
	j, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	await(t, g.parked, "a write to park")
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+j.ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	await(t, g.closed, "the cancel to close the job's store")
	close(g.open)
	if st := waitJob(t, j); st.State != StateCanceled {
		t.Fatalf("deleted job: %s (%s), want canceled", st.State, st.Error)
	}

	j2, err := m.Submit(Spec{}, bytes.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j2); st.State != StateDone {
		t.Fatalf("next job: %s (%s)", st.State, st.Error)
	}
	rc, _, err := m.Result(j2.ID())
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("next job's result differs from a direct sort (%v)", err)
	}
}
