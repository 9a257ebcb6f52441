package service

// The HTTP surface over Service, on a private mux (the
// internal/telemetry.Server pattern: importing this package can never
// leak handlers into an embedding application's DefaultServeMux).
//
//	POST   /v1/jobs              submit a Spec, get a queued Status (201)
//	GET    /v1/jobs              list all jobs' Statuses
//	GET    /v1/jobs/{id}         one job's Status
//	GET    /v1/jobs/{id}/events  SSE progress stream, ends with "done"
//	GET    /v1/jobs/{id}/result  the CSV artifact (?format=json for rows)
//	DELETE /v1/jobs/{id}         cancel (queued or running)
//	GET    /v1/work              the job currently accepting leases (204 if none)
//	POST   /v1/jobs/{id}/lease   claim a chunk of a running job (204 no work)
//	POST   /v1/jobs/{id}/lease/{lease}/heartbeat  renew a lease (410 gone)
//	POST   /v1/jobs/{id}/lease/{lease}/complete   report chunk results
//	GET    /healthz              "ok", or 503 while draining
//	GET    /debug/vars           expvar JSON: floodd.* plus every live
//	                             job's registry prefixed "job.<id>."
//	GET    /debug/pprof/...      the standard net/http/pprof handlers
//
// docs/SERVICE.md is the full reference with a worked curl session.

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"

	"ldcflood/internal/lease"
	"ldcflood/internal/telemetry"
)

// Handler returns the service's HTTP API on a fresh private mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	requests := s.reg.Counter("floodd.http.requests")
	streams := s.reg.Gauge("floodd.events.streams")
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		streams.Add(1)
		defer streams.Add(-1)
		s.handleEvents(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/work", s.handleWork)
	mux.HandleFunc("POST /v1/jobs/{id}/lease", s.handleLease)
	mux.HandleFunc("POST /v1/jobs/{id}/lease/{lease}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/jobs/{id}/lease/{lease}/complete", s.handleComplete)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		mux.ServeHTTP(w, r)
	})
}

// httpError is the JSON error envelope: {"error": "..."}.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck // best-effort error body
}

// writeStatus emits one job Status as JSON.
func writeStatus(w http.ResponseWriter, code int, st Status) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // client gone is the only failure
}

// handleSubmit is POST /v1/jobs: decode a Spec, admit it, 201 + Status.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeStatus(w, http.StatusCreated, j.Status())
	}
}

// handleList is GET /v1/jobs: every job's Status in submission order.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // client gone is the only failure
		Jobs []Status `json:"jobs"`
	}{out})
}

// lookup resolves {id} or writes a 404.
func (s *Service) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j, ok
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeStatus(w, http.StatusOK, j.Status())
	}
}

// handleCancel is DELETE /v1/jobs/{id}: cancel and return the (possibly
// already-updated) Status; 409 for a job that already finished.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	switch err := s.Cancel(j.ID); {
	case errors.Is(err, ErrJobTerminal):
		httpError(w, http.StatusConflict, "job %s already %s", j.ID, j.State())
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeStatus(w, http.StatusOK, j.Status())
	}
}

// handleResult is GET /v1/jobs/{id}/result: the CSV artifact byte-for-
// byte (text/csv), or the same rows as JSON objects with ?format=json.
// A job that has not succeeded answers 409 with its current state.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if st := j.State(); st != StateDone {
		httpError(w, http.StatusConflict, "job %s is %s, result not available", j.ID, st)
		return
	}
	f, err := os.Open(j.resultPath())
	if err != nil {
		httpError(w, http.StatusInternalServerError, "result artifact missing: %v", err)
		return
	}
	defer f.Close()
	if r.URL.Query().Get("format") == "json" {
		records, err := csv.NewReader(f).ReadAll()
		if err != nil || len(records) == 0 {
			httpError(w, http.StatusInternalServerError, "reading artifact: %v", err)
			return
		}
		rows := make([]map[string]string, 0, len(records)-1)
		for _, rec := range records[1:] {
			row := make(map[string]string, len(records[0]))
			for i, k := range records[0] {
				row[k] = rec[i]
			}
			rows = append(rows, row)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck // client gone is the only failure
			Rows []map[string]string `json:"rows"`
		}{rows})
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.ID+".csv"))
	io.Copy(w, f) //nolint:errcheck // client gone is the only failure
}

// handleEvents is GET /v1/jobs/{id}/events: a server-sent-event stream
// of "progress" snapshots ending with one "done" event carrying the
// terminal Status. A subscriber arriving after the job finished gets the
// "done" event immediately. The stream also ends when the client goes
// away or the server drains (the daemon closes listeners on shutdown).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, st := j.Subscribe()
	defer j.Unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Open with the current snapshot so clients need no separate status
	// fetch to render initial state.
	writeEvent(w, Event{Type: "status", Data: st})
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			writeEvent(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one SSE frame: "event: <type>\ndata: <json>\n\n".
func writeEvent(w io.Writer, ev Event) {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		data = []byte(`{}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// writeJSONBody emits v as indented JSON with the given status code.
func writeJSONBody(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure
}

// handleWork is GET /v1/work: the id of the job currently accepting
// leases, or 204 when no job is running. Workers poll this to discover
// work without knowing job ids in advance.
func (s *Service) handleWork(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	act := s.active
	s.mu.Unlock()
	if act == nil || act.running() == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSONBody(w, http.StatusOK, WorkReply{ID: act.ID})
}

// liveRun resolves {id} to its live lease run, or writes the
// appropriate error: 404 for an unknown job, 409 for a job that is not
// currently executing.
func (s *Service) liveRun(w http.ResponseWriter, r *http.Request) (*jobRun, bool) {
	j, ok := s.lookup(w, r)
	if !ok {
		return nil, false
	}
	run := j.running()
	if run == nil {
		httpError(w, http.StatusConflict, "job %s is not accepting leases (state %s)", j.ID, j.State())
		return nil, false
	}
	return run, true
}

// decodeBody decodes the request body — at most limit bytes — as exactly
// one JSON document into v; trailing data is an error.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

// handleLease is POST /v1/jobs/{id}/lease: claim a chunk. 200 with a
// LeaseGrant, 204 when every chunk is leased out or backing off (retry
// shortly), 410 once the job's work set has settled.
func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	run, ok := s.liveRun(w, r)
	if !ok {
		return
	}
	var req LeaseRequest
	if err := decodeBody(w, r, 1<<20, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	l, err := run.mgr.Lease(req.Worker)
	switch {
	case errors.Is(err, lease.ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, lease.ErrFinished):
		httpError(w, http.StatusGone, "job finished leasing")
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSONBody(w, http.StatusOK, LeaseGrant{
			Lease: l.ID, Chunk: l.Chunk, Cells: l.Cells,
			Deadline: l.Deadline, TTL: Duration(run.ttl), Key: run.key,
		})
	}
}

// handleHeartbeat is POST /v1/jobs/{id}/lease/{lease}/heartbeat: renew a
// lease. 410 means the lease is gone (expired, superseded, or completed)
// and the worker should abandon the chunk.
func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	run, ok := s.liveRun(w, r)
	if !ok {
		return
	}
	deadline, err := run.mgr.Heartbeat(r.PathValue("lease"))
	if err != nil {
		httpError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSONBody(w, http.StatusOK, HeartbeatReply{Deadline: deadline})
}

// maxCompleteBody bounds a completion report's size. Results carry full
// sim.Result payloads (per-packet delay vectors included), so the limit
// is far above the submit endpoint's.
const maxCompleteBody = 64 << 20

// handleComplete is POST /v1/jobs/{id}/lease/{lease}/complete: report a
// chunk's outcomes. Accepted cells are journaled; duplicates from zombie
// workers are dropped and reported in the CompleteReply. 409 rejects a
// journal-key mismatch (daemon/worker version skew), 410 an unknown or
// expired-and-superseded lease, 400 a malformed report.
func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	run, ok := s.liveRun(w, r)
	if !ok {
		return
	}
	var req CompleteRequest
	if err := decodeBody(w, r, maxCompleteBody, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad completion report: %v", err)
		return
	}
	if req.Key != "" && req.Key != run.key {
		httpError(w, http.StatusConflict, "journal key mismatch: report %q, job %q", req.Key, run.key)
		return
	}
	reply, err := run.apply(r.PathValue("lease"), req.Results)
	switch {
	case errors.Is(err, lease.ErrLeaseGone):
		// Still a JSON reply (Zombie set) so the worker can distinguish
		// "my work was redundant" from transport failures.
		writeJSONBody(w, http.StatusGone, reply)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSONBody(w, http.StatusOK, reply)
	}
}

// handleHealth is GET /healthz: "ok" while accepting jobs, 503 once
// draining.
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleVars is GET /debug/vars: the expvar-compatible JSON document —
// cmdline and memstats (what stdlib expvar always publishes), the
// service-level floodd.* instruments, and every job's private registry
// with its keys prefixed "job.<id>." (the per-job runner.*, sim.* and
// fault.* catalogs from docs/OBSERVABILITY.md). Assembled by hand like
// telemetry.Server's, and for the same reason: expvar's process-global
// registry panics on duplicate names across servers.
func (s *Service) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cmdline, _ := json.Marshal(os.Args)
	memstats, _ := json.Marshal(mem)
	fmt.Fprintf(w, "{\n\"cmdline\": %s,\n\"memstats\": %s", cmdline, memstats)
	writeSnap := func(prefix string, snap telemetry.Snapshot) {
		for _, k := range snap.Keys() {
			fmt.Fprintf(w, ",\n%q: %d", prefix+k, snap[k])
		}
	}
	writeSnap("", s.reg.Snapshot())
	for _, j := range s.Jobs() {
		writeSnap("job."+j.ID+".", j.Registry.Snapshot())
	}
	fmt.Fprint(w, "\n}\n")
}
