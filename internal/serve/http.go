package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"memnet/internal/exp"
)

// maxBodyBytes bounds a submitted job spec. The largest legitimate spec —
// a full fault schedule — is a few hundred KB; anything bigger is abuse.
const maxBodyBytes = 1 << 20

// Retry-After values (seconds) for the two backpressure 503s. A full
// queue clears as soon as the running job finishes, so retry quickly; a
// draining server is going away, so give a restart time to happen.
const (
	retryAfterQueueFull = 5
	retryAfterDraining  = 30
	// maxRetryAfter caps the Retry-After a shed submission reports, so a
	// pathological delay estimate never tells a client to go away for hours.
	maxRetryAfter = 300
)

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	// Liveness: the process is up and serving HTTP. Stays 200 during a
	// drain so an orchestrator does not kill a server that is finishing
	// its in-flight job.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Readiness: whether new work is being admitted. Flips to 503 the
	// moment Shutdown begins, so load balancers stop routing here while
	// the drain completes.
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	}
	s.mux = mux
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// writeJSON writes v as the response body with the given status. Encoder
// failures after the header is out cannot be reported to the client, but
// they are no longer silently discarded: the structured log gets them.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.lg.Error("response encode failed", "err", err)
	}
}

// httpError writes a JSON error body with the given status.
func (s *Server) httpError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeSubmitError maps a submission error to an HTTP response. The
// backpressure rejections are 503 with a Retry-After header so
// well-behaved clients back off instead of hammering the queue — a shed
// submission gets the actual delay estimate, rounded up and capped;
// everything else is the caller's fault (400).
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		retry := int(ov.Estimate.Seconds()) + 1
		if retry > maxRetryAfter {
			retry = maxRetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterQueueFull))
		s.httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDraining))
		s.httpError(w, http.StatusServiceUnavailable, err)
	default:
		s.httpError(w, http.StatusBadRequest, err)
	}
}

// decodeSpec reads one JobSpec from an untrusted request body: bounded
// size, unknown fields rejected, trailing garbage rejected.
func decodeSpec(w http.ResponseWriter, r *http.Request) (*JobSpec, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("serve: bad job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: bad job spec: trailing data after the JSON object")
	}
	return spec, nil
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	// Start non-nil so an empty registry encodes as [], not null —
	// clients iterating the response should never see a JSON null.
	out := make([]entry, 0, 16)
	for _, e := range exp.Experiments() {
		out = append(out, entry{e.Name, e.Desc})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, BuildVersion())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	key, state, reused, err := s.Submit(spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	status := http.StatusOK
	if !reused {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, map[string]any{
		"id": key, "state": state, "reused": reused,
	})
}

// lookup resolves the {id} path segment to a job; ids are content-address
// keys, so the format check doubles as input hardening.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	resp := map[string]any{
		"id":         j.key,
		"experiment": j.spec.Experiment,
		"state":      j.state,
		"events":     len(j.events),
	}
	running := j.state == StateRunning
	if j.errMsg != "" {
		resp["error"] = j.errMsg
	}
	if j.recovered {
		// Revived or re-queued by restart recovery.
		resp["recovered"] = true
	}
	s.mu.Unlock()
	if running {
		// The live wall-clock rates: how fast the job is actually moving.
		resp["progress"] = j.prog.Snapshot()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, result, errMsg := j.state, j.result, j.errMsg
	s.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, result)
	case StateFailed:
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: job failed: %s", errMsg))
	case StateCancelled:
		s.httpError(w, http.StatusGone, fmt.Errorf("serve: job cancelled: %s", errMsg))
	case StateAborted:
		s.httpError(w, http.StatusGone, fmt.Errorf("serve: job aborted at shutdown"))
	default:
		s.httpError(w, http.StatusNotFound, fmt.Errorf("serve: job is %s; result not ready", state))
	}
}

// handleProfile serves the job's per-run latency-attribution profiles as
// a JSON array (one "memnet-prof/v1" object per run, in run-start order).
// 404 until the job is done, and for jobs run without server-side
// profiling — including results revived from the disk cache, which carry
// text only.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, profiles := j.state, j.profiles
	s.mu.Unlock()
	if state != StateDone {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("serve: job is %s; profile not ready", state))
		return
	}
	if len(profiles) == 0 {
		s.httpError(w, http.StatusNotFound,
			fmt.Errorf("serve: no profile for this job (server profiling disabled, or result revived from the disk cache)"))
		return
	}
	s.writeJSON(w, http.StatusOK, profiles)
}

// handleCancel is DELETE /v1/jobs/{id}: cooperative cancellation. A
// queued job is terminal by the time the response is written (200); a
// running job is told to stop and unwinds at the next engine-event
// boundary (202 — poll status or the event stream for "cancelled").
// Cancelling a job that already finished is a conflict (409).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	state, err := s.Cancel(j.key, "cancelled via DELETE /v1/jobs")
	if err != nil {
		if errors.Is(err, ErrJobFinished) {
			s.httpError(w, http.StatusConflict, fmt.Errorf("serve: job is %s; nothing to cancel", state))
			return
		}
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	status := http.StatusOK
	if state == StateRunning {
		status = http.StatusAccepted
	}
	s.writeJSON(w, status, map[string]any{"id": j.key, "state": state})
}

// handleEvents streams the job's progress as JSON lines: the full replay
// buffer first, then live events until the job ends or the client leaves.
// Leaving never cancels the job.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	replay, ch := j.subscribe(&s.mu)
	s.met.subscribers.Add(1)
	defer func() {
		j.unsubscribe(&s.mu, ch)
		s.met.subscribers.Add(-1)
	}()
	for _, line := range replay {
		fmt.Fprintln(w, line)
	}
	flusher.Flush()
	// The terminal job_done line is published before done is closed, so
	// draining ch after done fires delivers everything.
	for {
		select {
		case line := <-ch:
			fmt.Fprintln(w, line)
			flusher.Flush()
		case <-j.done:
			for {
				select {
				case line := <-ch:
					fmt.Fprintln(w, line)
				default:
					flusher.Flush()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleRun submits a job and waits for its result — the curl-friendly
// path, and the one CI byte-compares against cmd/experiments. If the
// client disconnects while waiting, the job keeps running and the result
// is cached for the next identical request.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	key, _, _, err := s.Submit(spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	result, err := s.Wait(r.Context(), key)
	if err != nil {
		if r.Context().Err() != nil {
			// Client gone; nothing useful to write.
			return
		}
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, result)
}
