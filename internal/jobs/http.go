package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"srmsort/internal/pdisk"
)

// NewHandler exposes a Manager over HTTP/JSON — the sortd wire surface:
//
//	POST   /jobs             submit: body = wire-format records, query
//	                         parameters = Spec fields (alg, d, b, k,
//	                         mem, seed, async, cores, codec);
//	                         returns 202 with the job status
//	GET    /jobs             list every job plus server stats
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result stream the sorted records (200, octet-
//	                         stream) once the job is done; 409 before
//	DELETE /jobs/{id}        cancel; returns the resulting status
//	GET    /stats            server memory ledger and job counts
//	GET    /healthz          liveness
//
// Records travel in the job's codec wire format: under fixed16 (the
// default) 16 bytes little-endian per record, 8 of key then 8 of payload
// (srmsort.RecordWireSize); under codec=varlen or varlen+flate each
// record is a uvarint total length followed by a uvarint key length, the
// key bytes and the payload bytes.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := specFromQuery(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		j, err := m.submit(spec, r.Body, r.ContentLength)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrDraining) || errors.Is(err, ErrKilled) {
				// The server is going away, not the request: tell the
				// client to try another instance (or later).
				code = http.StatusServiceUnavailable
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Status())
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Jobs   []Status    `json:"jobs"`
			Server ServerStats `json:"server"`
		}{m.List(), m.Stats()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := m.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		if st := j.Status(); st.State != StateDone {
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s, result not available", id, st.State))
			return
		}
		rc, size, err := m.Result(id)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, rc)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ServerStats is the GET /stats payload.
type ServerStats struct {
	MemoryBudget int           `json:"memory_budget"`
	MemoryInUse  int           `json:"memory_in_use"`
	MemoryPeak   int           `json:"memory_peak"`
	CoreBudget   int           `json:"core_budget"`
	CoresInUse   int           `json:"cores_in_use"`
	CoresPeak    int           `json:"cores_peak"`
	Jobs         map[State]int `json:"jobs"`
	// IOHealth is the server-wide per-disk latency/timeout/hedging
	// ledger, accumulated across every job's deadline layer; absent
	// when the server runs without Options.Deadline.
	IOHealth *pdisk.HealthStats `json:"io_health,omitempty"`
}

// Stats snapshots the server ledgers and per-state job counts.
func (m *Manager) Stats() ServerStats {
	total, inUse, peak := m.Budget()
	cTotal, cInUse, cPeak := m.Cores()
	counts := make(map[State]int)
	for _, st := range m.List() {
		counts[st.State]++
	}
	return ServerStats{
		MemoryBudget: total,
		MemoryInUse:  inUse,
		MemoryPeak:   peak,
		CoreBudget:   cTotal,
		CoresInUse:   cInUse,
		CoresPeak:    cPeak,
		Jobs:         counts,
		IOHealth:     m.Health(),
	}
}

// specFromQuery decodes Spec fields from URL query parameters.
func specFromQuery(r *http.Request) (Spec, error) {
	q := r.URL.Query()
	var spec Spec
	if q.Has("workers") {
		// Admission reserves one merge's memory and the job's cores; a
		// pass-level worker pool would run several merges outside that
		// reservation.
		return spec, fmt.Errorf("query parameter workers is not supported; use cores")
	}
	spec.Algorithm = q.Get("alg")
	spec.Codec = q.Get("codec")
	var err error
	geti := func(name string) int {
		s := q.Get(name)
		if s == "" || err != nil {
			return 0
		}
		v, perr := strconv.Atoi(s)
		if perr != nil {
			err = fmt.Errorf("query parameter %s=%q: %v", name, s, perr)
		}
		return v
	}
	spec.D = geti("d")
	spec.B = geti("b")
	spec.K = geti("k")
	spec.Memory = geti("mem")
	spec.Cores = geti("cores")
	if s := q.Get("seed"); s != "" && err == nil {
		v, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil {
			err = fmt.Errorf("query parameter seed=%q: %v", s, perr)
		}
		spec.Seed = v
	}
	if s := q.Get("async"); s != "" && err == nil {
		v, perr := strconv.ParseBool(s)
		if perr != nil {
			err = fmt.Errorf("query parameter async=%q: %v", s, perr)
		}
		spec.Async = v
	}
	return spec, err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
