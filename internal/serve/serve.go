// Package serve is memnetd's serving layer: a long-running HTTP/JSON-lines
// front end over the experiment registry (internal/exp). Clients submit
// simulation jobs (experiment name + parameters); the server validates and
// canonicalizes each spec, dedupes identical work through a
// content-addressed result cache, queues admitted jobs in a bounded
// per-client-fair FIFO, executes them one at a time (each job fans its
// runs across the internal/par worker pool, exactly as cmd/experiments
// does), and streams progress events as JSON lines.
//
// Served results are byte-identical to `cmd/experiments -exp <name>`
// output for the same parameters — both render the same registry — and CI
// pins that with a cmp job.
//
// Jobs are server-owned: a client that disconnects mid-run abandons only
// its response stream, not the simulation, and the finished result stays
// cached for the next request. Shutdown drains the in-flight job before
// returning and aborts what is still queued.
//
// # HTTP API
//
//	GET  /v1/healthz            liveness probe (200 even while draining)
//	GET  /v1/readyz             readiness probe (503 once draining starts)
//	GET  /v1/experiments        the experiment registry (JSON)
//	GET  /v1/stats              queue/cache/simulation counters (JSON)
//	GET  /v1/version            server build info (module, Go, VCS ref)
//	GET  /metrics               Prometheus text exposition (with Config.Metrics)
//	POST /v1/jobs               submit a JobSpec; returns id + state
//	GET  /v1/jobs/{id}          job status (JSON; live progress rates while running)
//	DELETE /v1/jobs/{id}        cancel a queued or running job (cooperative)
//	GET  /v1/jobs/{id}/events   progress stream (JSON lines, replay + live)
//	GET  /v1/jobs/{id}/result   the result text (404 until done)
//	GET  /v1/jobs/{id}/profile  per-run latency-attribution profiles (JSON
//	                            array; 404 unless run with Config.Profile)
//	POST /v1/run                submit and wait; returns the result text
//
// # Crash tolerance
//
// With a cache directory configured every admitted job is also one entry
// in a second verified store, <cache-dir>/pending, written atomically and
// durably like a result blob: rewritten once as started at dispatch, and
// deleted when the job reaches a terminal state. A restarted server reads
// the entries in submission order before accepting traffic — jobs whose
// results already landed in the disk cache are revived as done, and jobs
// that were queued or running when the process died (kill -9 included)
// are re-queued and run again. Cancelled jobs are cooperative: the
// running sweep polls a stop latch between engine events and unwinds
// within one watchdog interval.
//
// Telemetry is wall-clock and strictly passive: the simulated-time
// observability in internal/obs pins byte-identical results on/off, and
// this layer only ever timestamps serving-side events (queue waits, run
// durations, progress arrival), so served output is byte-identical with
// a metrics registry attached or not.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"memnet/internal/exp"
	"memnet/internal/obs"
	"memnet/internal/serve/cachedir"
	"memnet/internal/telemetry"
)

// ewmaDecay weights the run-duration moving average used by admission
// control: new observations get 1-ewmaDecay.
const ewmaDecay = 0.7

// Sentinel submission errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 503: retry later).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("serve: server is shutting down")
	// ErrJobFinished rejects a cancel aimed at a job already done or
	// failed (HTTP 409: there is nothing left to cancel).
	ErrJobFinished = errors.New("serve: job already finished")
)

// OverloadError rejects a submission when admission control estimates the
// queue delay would exceed Config.MaxQueueDelay (HTTP 503 with the
// estimate as Retry-After).
type OverloadError struct {
	// Estimate is the projected wait before this job would start.
	Estimate time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: estimated queue delay %s exceeds the admission bound", e.Estimate.Round(time.Second))
}

// Runner executes one canonicalized job under the job's environment (its
// fault schedule, progress sink, stop latch and profile directory) and
// returns its rendered result. The default runs the experiment registry;
// tests inject stubs.
type Runner func(spec *JobSpec, env exp.Env) (string, error)

// RegistryRunner renders spec's experiment exactly as cmd/experiments
// prints it (including the trailing newline fmt.Println appends), so a
// served result byte-compares against the CLI's stdout.
func RegistryRunner(spec *JobSpec, env exp.Env) (string, error) {
	e, ok := exp.Find(spec.Experiment)
	if !ok {
		return "", fmt.Errorf("serve: unknown experiment %q", spec.Experiment)
	}
	p := spec.Params()
	p.Env = env
	out, err := e.Run(p)
	if err != nil {
		return "", err
	}
	return out + "\n", nil
}

// Config configures a Server.
type Config struct {
	// QueueCap bounds the number of queued (admitted, not yet running)
	// jobs; submissions beyond it are rejected with ErrQueueFull.
	// Default 64.
	QueueCap int
	// CacheDir, when non-empty, persists results on disk so a restarted
	// server still dedupes against everything it ever computed, and keeps
	// every queued or running job under <CacheDir>/pending so a restarted
	// server recovers it.
	CacheDir string
	// MaxQueueDelay enables admission control: a submission whose
	// estimated wait (recent mean run duration × jobs ahead of it) exceeds
	// this bound is shed with an OverloadError instead of queued. Zero
	// disables shedding; the hard QueueCap still applies.
	MaxQueueDelay time.Duration
	// MaxRunTime is the server-wide ceiling on one job's wall-clock run
	// time; a running job past it is cancelled cooperatively. Zero means
	// no ceiling. A spec's MaxRunSeconds tightens (never loosens) it.
	MaxRunTime time.Duration
	// Runner executes jobs (default RegistryRunner).
	Runner Runner
	// Logger receives structured lifecycle logs, keyed by job
	// content-address under the "job" attribute. Nil falls back to a JSON
	// logger on stderr.
	Logger *slog.Logger
	// Profile, when true, collects a latency-attribution profile (package
	// prof) for every run of every executed job and serves them at
	// GET /v1/jobs/{id}/profile. Profiling is passive — served results
	// stay byte-identical — but the profiles themselves are served from
	// memory only: results revived from the disk cache have none.
	Profile bool
	// Metrics, when non-nil, receives the server's wall-clock telemetry
	// (queue depth, cache hits, latency histograms, per-job progress
	// rates) and is exposed as GET /metrics on the server's handler.
	// Nil keeps the same counters in a private registry that only Stats
	// reads.
	Metrics *telemetry.Registry
}

// Stats are the server's monotonic counters plus current queue state.
type Stats struct {
	SimulationsRun int64 `json:"simulations_run"` // jobs actually executed
	CacheHits      int64 `json:"cache_hits"`      // submissions answered from a completed result
	CacheHitsDisk  int64 `json:"cache_hits_disk"` // subset of CacheHits revived from the disk cache
	Deduped        int64 `json:"deduped"`         // submissions attached to an identical queued/running job
	Rejected       int64 `json:"rejected"`        // submissions refused (queue full)
	Shed           int64 `json:"shed_requests"`   // submissions shed by admission control (estimated delay too high)
	Failed         int64 `json:"jobs_failed"`
	Cancelled      int64 `json:"jobs_cancelled"`    // cancel API or deadline expiry
	Recovered      int64 `json:"recovered_jobs"`    // jobs revived or re-queued by restart recovery
	Corruptions    int64 `json:"cache_corruptions"` // disk-cache blobs quarantined after failing verification
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	Draining       bool  `json:"draining"`

	// Progress is the wall-clock progress of the running job (nil when
	// idle): how fast simulated time is advancing in real seconds, and
	// how long since the job last reported anything.
	Progress *JobProgress `json:"progress,omitempty"`

	// Version identifies the server build (also at GET /v1/version).
	Version Version `json:"version"`
}

// JobProgress is the running job's live wall-clock progress view.
type JobProgress struct {
	Job        string `json:"job"`        // content-address key
	Experiment string `json:"experiment"` // registry name
	telemetry.ProgressSnapshot
}

// Server owns the job table, the queue and the single dispatcher
// goroutine. Create with New, serve its Handler, stop with Shutdown.
type Server struct {
	cfg  Config
	lg   *slog.Logger
	met  *serveMetrics
	disk *cachedir.Store
	// pending holds one entry per queued or running job (nil without a
	// cache dir).
	pending *cachedir.Store
	mux     *http.ServeMux

	mu   sync.Mutex
	cond *sync.Cond
	// jobs is the in-memory job table and result cache, keyed by content
	// address. Completed jobs stay resident: the cache is the point.
	jobs map[string]*job
	// queue holds per-client FIFO lists; clients lists the clients with
	// queued work in round-robin order and nextCli is the RR cursor, so
	// one client flooding the queue cannot starve another's first job.
	queue    map[string][]*job
	clients  []string
	nextCli  int
	queuedN  int
	running  *job
	draining bool
	// seq is the last submission number handed out; runEWMA is the
	// moving average of run durations in seconds that admission control
	// projects queue delay from.
	seq     uint64
	runEWMA float64

	dispatcherDone chan struct{}
}

// New builds a Server and starts its dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Runner == nil {
		cfg.Runner = RegistryRunner
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NewLogger(os.Stderr)
	}
	s := &Server{
		cfg:            cfg,
		lg:             cfg.Logger,
		jobs:           make(map[string]*job),
		queue:          make(map[string][]*job),
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	reg := cfg.Metrics
	if reg == nil {
		// Stats reads the counters, so the server always keeps them; only
		// a caller's registry is exposed at /metrics.
		reg = telemetry.NewRegistry()
	}
	s.met = newServeMetrics(reg, s)
	if cfg.CacheDir != "" {
		disk, err := cachedir.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		disk.Instrument(s.met.diskCounters())
		s.disk = disk
		// Uninstrumented: the disk-cache counters count results only.
		if s.pending, err = cachedir.Open(filepath.Join(cfg.CacheDir, "pending")); err != nil {
			return nil, err
		}
		// Recover before the dispatcher starts: recovered jobs must be in
		// the queue before anything else can be picked.
		s.recover()
	}
	s.buildMux()
	go s.dispatch()
	return s, nil
}

// pendingEntry is the body of a job's entry in the pending store: its
// place in submission order, whether the dispatcher had handed it to the
// runner, and the canonical spec to run it again from.
type pendingEntry struct {
	Seq     uint64   `json:"seq"`
	Started bool     `json:"started"`
	Spec    *JobSpec `json:"spec"`
}

// recover rebuilds the queue from the pending entries a previous process
// left: jobs whose result is already in the disk cache are revived as
// done, everything else — queued or interrupted mid-run — is re-queued in
// original submission order. Damage never aborts startup: an entry the
// store quarantines, or that does not decode, drops only its own job.
func (s *Server) recover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, err := s.pending.Keys()
	if err != nil {
		// An unreadable store loses recovery, not service.
		s.lg.Error("pending entries unreadable; starting with an empty queue", "err", err)
		return
	}
	type entry struct {
		key string
		pendingEntry
	}
	var entries []entry
	for _, key := range keys {
		e := entry{key: key}
		body, ok, err := s.pending.Get(key)
		if ok {
			if err = json.Unmarshal(body, &e.pendingEntry); err == nil && e.Spec == nil {
				err = errors.New("no spec")
			}
		}
		if !ok || err != nil {
			s.lg.Error("pending entry damaged; dropping its job", "job", key, "err", err)
			s.dropPendingLocked(key)
			continue
		}
		s.seq = max(s.seq, e.Seq)
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Seq < entries[b].Seq })
	revived, requeued := 0, 0
	for _, e := range entries {
		spec := e.Spec
		if err := spec.Canonicalize(); err != nil {
			s.lg.Error("recovered spec no longer valid; dropping", "job", e.key, "err", err)
			s.dropPendingLocked(e.key)
			continue
		}
		key := spec.Key()
		if key != e.key {
			// The entry's key does not match the spec it carries —
			// tampering or version skew. The spec is authoritative.
			s.lg.Warn("recovered job key mismatch; trusting the spec", "entry_key", e.key, "spec_key", key)
			s.dropPendingLocked(e.key)
		}
		if _, dup := s.jobs[key]; dup {
			continue
		}
		j := newJob(spec, key)
		j.seq = e.Seq
		j.recovered = true
		if data, ok, err := s.disk.Get(key); err != nil {
			s.lg.Error("disk cache read failed during recovery", "job", key, "err", err)
		} else if ok {
			// The result outlived the crash; the job is done, just unannounced.
			j.state = StateDone
			j.result = string(data)
			close(j.done)
			s.jobs[key] = j
			s.dropPendingLocked(key)
			revived++
			continue
		}
		if key != e.key {
			s.putPendingLocked(j, e.Started)
		}
		s.jobs[key] = j
		s.enqueueLocked(j)
		j.publishLocked(fmt.Sprintf(`{"event":"job_recovered","id":%q,"interrupted":%v}`, key, e.Started))
		requeued++
	}
	s.met.recoveredJobs.Add(int64(revived + requeued))
	s.met.queueDepth.Set(int64(s.queuedN))
	s.met.setClientQueuesLocked(s.queue)
	if len(keys) > 0 {
		s.lg.Info("recovery complete", "revived", revived, "requeued", requeued, "entries", len(keys))
	}
}

// putPendingLocked writes j's pending entry (no-op without a cache dir).
// Write failures degrade durability, not service: they are logged and
// counted, and the server keeps running.
func (s *Server) putPendingLocked(j *job, started bool) {
	if s.pending == nil {
		return
	}
	body, err := json.Marshal(pendingEntry{Seq: j.seq, Started: started, Spec: j.spec})
	if err == nil {
		err = s.pending.Put(j.key, body)
	}
	if err != nil {
		s.met.pendingErrors.Inc()
		s.lg.Error("pending entry write failed", "job", j.key, "err", err)
	}
}

// dropPendingLocked deletes a job's pending entry once nothing is left to
// recover, with the same failure handling as putPendingLocked.
func (s *Server) dropPendingLocked(key string) {
	if s.pending == nil {
		return
	}
	if err := s.pending.Delete(key); err != nil {
		s.met.pendingErrors.Inc()
		s.lg.Error("pending entry delete failed", "job", key, "err", err)
	}
}

// Draining reports whether the server has begun shutting down (the
// readiness signal behind /v1/readyz).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// progressSnapshot returns the running job's wall-clock progress (zero
// when idle). Scrape-time callbacks read it outside the registry lock.
func (s *Server) progressSnapshot() telemetry.ProgressSnapshot {
	s.mu.Lock()
	j := s.running
	s.mu.Unlock()
	if j == nil {
		return telemetry.ProgressSnapshot{}
	}
	return j.prog.Snapshot()
}

// Stats returns a snapshot of the counters, read from the server's
// telemetry registry.
func (s *Server) Stats() Stats {
	m := s.met
	st := Stats{
		SimulationsRun: m.runSeconds.Count(),
		CacheHits:      m.cacheHitMem.Value() + m.cacheHitDisk.Value(),
		CacheHitsDisk:  m.cacheHitDisk.Value(),
		Deduped:        m.deduped.Value(),
		Rejected:       m.rejectedFull.Value(),
		Shed:           m.shedRequests.Value(),
		Failed:         m.jobsFailed.Value(),
		Cancelled:      m.jobsCancelled.Value(),
		Recovered:      m.recoveredJobs.Value(),
		Corruptions:    m.corruptions.Value(),
		Version:        BuildVersion(),
	}
	s.mu.Lock()
	st.Queued = s.queuedN
	st.Draining = s.draining
	j := s.running
	if j != nil {
		st.Running = 1
	}
	s.mu.Unlock()
	if j != nil {
		// Snapshot outside the server lock: the tracker has its own.
		st.Progress = &JobProgress{
			Job:              j.key,
			Experiment:       j.spec.Experiment,
			ProgressSnapshot: j.prog.Snapshot(),
		}
	}
	return st
}

// Submit validates, canonicalizes and admits a job spec. It returns the
// job's content-address key, its state after admission, and whether this
// submission was answered without new work (cache hit or dedupe). The
// caller observes completion via Wait or the HTTP event stream.
func (s *Server) Submit(spec *JobSpec) (key, state string, reused bool, err error) {
	if err := spec.Canonicalize(); err != nil {
		return "", "", false, err
	}
	j, reused, err := s.admit(spec)
	if err != nil {
		return "", "", false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.key, j.state, reused, nil
}

// admit takes a canonicalized spec and returns its job: an existing one
// (cache hit / dedupe), one revived from the disk cache, or a freshly
// queued one.
func (s *Server) admit(spec *JobSpec) (*job, bool, error) {
	key := spec.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Aborted and cancelled jobs do not block resubmission: the work was
	// never finished, so an identical spec starts fresh.
	if j, ok := s.jobs[key]; ok && j.state != StateAborted && j.state != StateCancelled {
		switch j.state {
		case StateDone, StateFailed:
			// Failed results are cached too: the simulator is
			// deterministic, so the same spec fails the same way.
			s.met.cacheHitMem.Inc()
		default:
			s.met.deduped.Inc()
		}
		return j, true, nil
	}
	if s.disk != nil {
		if data, ok, err := s.disk.Get(key); err != nil {
			s.lg.Error("disk cache read failed", "job", key, "err", err)
		} else if ok {
			j := newJob(spec, key)
			j.state = StateDone
			j.result = string(data)
			close(j.done)
			s.jobs[key] = j
			s.met.cacheHitDisk.Inc()
			return j, true, nil
		}
	}
	if s.draining {
		s.met.rejectedDrain.Inc()
		return nil, false, ErrDraining
	}
	if s.queuedN >= s.cfg.QueueCap {
		s.met.rejectedFull.Inc()
		return nil, false, ErrQueueFull
	}
	if s.cfg.MaxQueueDelay > 0 && s.runEWMA > 0 {
		// Shed early when the projected wait — recent mean run duration ×
		// jobs ahead (queued plus in-flight) — exceeds the bound. Better a
		// fast 503 with an honest Retry-After than a queue slot the client
		// will give up on anyway.
		ahead := s.queuedN
		if s.running != nil {
			ahead++
		}
		est := time.Duration(s.runEWMA * float64(ahead) * float64(time.Second))
		if est > s.cfg.MaxQueueDelay {
			s.met.shedRequests.Inc()
			s.lg.Info("submission shed", "experiment", spec.Experiment, "estimated_delay", est.Round(time.Second).String())
			return nil, false, &OverloadError{Estimate: est}
		}
	}
	j := newJob(spec, key)
	s.seq++
	j.seq = s.seq
	s.jobs[key] = j
	s.enqueueLocked(j)
	s.met.cacheMiss.Inc()
	s.met.queuedTotal.Inc()
	s.met.queueDepth.Set(int64(s.queuedN))
	s.met.setClientQueuesLocked(s.queue)
	s.putPendingLocked(j, false)
	s.lg.Info("job queued", "job", key, "experiment", spec.Experiment, "client", clientOf(spec), "queued", s.queuedN)
	s.cond.Signal()
	return j, false, nil
}

// Wait blocks until the job reaches a terminal state or ctx is cancelled.
// Cancellation abandons only the wait — the job keeps running and its
// result stays cached (client churn must not waste computed work).
func (s *Server) Wait(ctx context.Context, key string) (result string, err error) {
	s.mu.Lock()
	j, ok := s.jobs[key]
	s.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("serve: unknown job %q", key)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return "", fmt.Errorf("serve: job failed: %s", j.errMsg)
	case StateCancelled:
		return "", fmt.Errorf("serve: job cancelled: %s", j.errMsg)
	default: // aborted
		return "", fmt.Errorf("serve: job aborted at shutdown")
	}
}

// Cancel tears a job down. A queued job is removed from the queue and
// terminal immediately; a running job gets its stop latch tripped and the
// sweep unwinds cooperatively at the next engine-event boundary (the
// returned state is "running" — watch the event stream or poll status for
// the terminal "cancelled"). Cancelling an already-cancelled or aborted
// job is idempotent; a done or failed job returns ErrJobFinished.
func (s *Server) Cancel(key, reason string) (state string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return "", fmt.Errorf("serve: unknown job %q", key)
	}
	switch j.state {
	case StateQueued:
		if !s.removeQueuedLocked(j) {
			// In the table as queued but not in the queue: accounting bug.
			return "", fmt.Errorf("serve: job %q queued but not found in queue", key)
		}
		j.state = StateCancelled
		j.errMsg = reason
		s.met.jobsCancelled.Inc()
		s.met.queueDepth.Set(int64(s.queuedN))
		s.met.setClientQueuesLocked(s.queue)
		s.dropPendingLocked(key)
		j.publishLocked(terminalLine(j))
		close(j.done)
		s.lg.Info("job cancelled", "job", key, "experiment", j.spec.Experiment, "reason", reason, "was", StateQueued)
		return j.state, nil
	case StateRunning:
		// Cooperative: execute observes the latch when the sweep unwinds
		// and writes the terminal state, pending entry and counters there.
		j.stop.Trip(reason)
		s.lg.Info("job cancelling", "job", key, "experiment", j.spec.Experiment, "reason", reason)
		return j.state, nil
	case StateCancelled, StateAborted:
		return j.state, nil
	default: // done, failed
		return j.state, ErrJobFinished
	}
}

// clientOf names the queue a spec waits in.
func clientOf(spec *JobSpec) string {
	if spec.Client == "" {
		return "anonymous"
	}
	return spec.Client
}

// enqueueLocked appends a job to its client's FIFO, adding the client to
// the round-robin order when it had nothing queued.
func (s *Server) enqueueLocked(j *job) {
	client := clientOf(j.spec)
	if len(s.queue[client]) == 0 {
		s.clients = append(s.clients, client)
	}
	s.queue[client] = append(s.queue[client], j)
	s.queuedN++
}

// removeQueuedLocked unlinks a queued job from its client's FIFO,
// maintaining the round-robin cursor. Reports whether the job was found.
func (s *Server) removeQueuedLocked(target *job) bool {
	client := clientOf(target.spec)
	q := s.queue[client]
	for i, j := range q {
		if j != target {
			continue
		}
		q = append(q[:i], q[i+1:]...)
		if len(q) == 0 {
			delete(s.queue, client)
			for ci, c := range s.clients {
				if c == client {
					s.clients = append(s.clients[:ci], s.clients[ci+1:]...)
					if ci < s.nextCli {
						s.nextCli--
					}
					break
				}
			}
		} else {
			s.queue[client] = q
		}
		s.queuedN--
		return true
	}
	return false
}

// dispatch is the single executor loop: it picks one queued job at a time
// (round-robin over clients, FIFO within a client) and runs it. Each job
// already fans its runs across the whole internal/par pool.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	for {
		s.mu.Lock()
		for s.queuedN == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.draining {
			s.abortQueuedLocked()
			s.mu.Unlock()
			return
		}
		j := s.pickLocked()
		j.state = StateRunning
		s.running = j
		s.met.queueDepth.Set(int64(s.queuedN))
		s.met.setClientQueuesLocked(s.queue)
		s.met.queueWait.Observe(time.Since(j.queuedAt).Seconds())
		s.met.runningJobs.Set(1)
		s.putPendingLocked(j, true)
		j.publishLocked(fmt.Sprintf(`{"event":"job_running","id":%q}`, j.key))
		s.mu.Unlock()

		s.execute(j)
	}
}

// pickLocked pops the next job: the round-robin cursor selects the client,
// the client's list is FIFO.
func (s *Server) pickLocked() *job {
	if s.nextCli >= len(s.clients) {
		s.nextCli = 0
	}
	c := s.clients[s.nextCli]
	q := s.queue[c]
	j := q[0]
	if len(q) == 1 {
		delete(s.queue, c)
		// Removing the client leaves nextCli pointing at the next one.
		s.clients = append(s.clients[:s.nextCli], s.clients[s.nextCli+1:]...)
	} else {
		s.queue[c] = q[1:]
		s.nextCli++
	}
	s.queuedN--
	return j
}

// deadlineFor returns the job's effective run-time ceiling: the tighter
// of the spec's MaxRunSeconds and the server-wide MaxRunTime (zero: none).
func (s *Server) deadlineFor(spec *JobSpec) time.Duration {
	d := s.cfg.MaxRunTime
	if spec.MaxRunSeconds > 0 {
		jd := time.Duration(spec.MaxRunSeconds * float64(time.Second))
		if d == 0 || jd < d {
			d = jd
		}
	}
	return d
}

// execute runs one job through the Runner under the job's environment —
// its fault schedule, progress sink, stop latch and (with Config.Profile)
// a temporary profile directory — then publishes the terminal state.
func (s *Server) execute(j *job) {
	env := exp.Env{
		Faults:   j.spec.Faults,
		Progress: func(ev obs.ProgressEvent) { s.publishProgress(j, ev) },
		Stop:     j.stop,
	}
	var deadlineTimer *time.Timer
	if d := s.deadlineFor(j.spec); d > 0 {
		deadlineTimer = time.AfterFunc(d, func() {
			j.stop.Trip(fmt.Sprintf("deadline exceeded after %s", d))
		})
	}
	if s.cfg.Profile {
		dir, err := os.MkdirTemp("", "memnetd-prof-")
		if err != nil {
			// Degrade to an unprofiled run; the result is identical anyway.
			s.lg.Error("profile dir creation failed", "job", j.key, "err", err)
		}
		env.ProfileDir = dir
	}
	start := time.Now()
	out, err := s.cfg.Runner(j.spec, env)
	elapsed := time.Since(start)
	if deadlineTimer != nil {
		deadlineTimer.Stop()
	}
	var profiles []json.RawMessage
	if env.ProfileDir != "" {
		profiles = s.collectProfiles(j, env.ProfileDir)
		os.RemoveAll(env.ProfileDir)
	}
	s.met.runSeconds.Observe(elapsed.Seconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	// Nothing woken by j.done may still see the job run.
	s.running = nil
	s.met.runningJobs.Set(0)
	if s.runEWMA == 0 {
		s.runEWMA = elapsed.Seconds()
	} else {
		s.runEWMA = ewmaDecay*s.runEWMA + (1-ewmaDecay)*elapsed.Seconds()
	}
	if err != nil && j.stop.Tripped() {
		// The sweep unwound because the latch tripped (cancel API or
		// deadline), not because the simulation failed.
		j.state = StateCancelled
		j.errMsg = j.stop.Reason()
		s.met.jobsCancelled.Inc()
		s.dropPendingLocked(j.key)
		s.lg.Info("job cancelled", "job", j.key, "experiment", j.spec.Experiment,
			"wall_seconds", elapsed.Seconds(), "reason", j.errMsg, "was", StateRunning)
	} else if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		s.met.jobsFailed.Inc()
		s.dropPendingLocked(j.key)
		s.lg.Error("job failed", "job", j.key, "experiment", j.spec.Experiment,
			"wall_seconds", elapsed.Seconds(), "err", err)
	} else {
		j.state = StateDone
		j.result = out
		j.profiles = profiles
		s.met.jobsDone.Inc()
		s.lg.Info("job done", "job", j.key, "experiment", j.spec.Experiment,
			"wall_seconds", elapsed.Seconds(), "bytes", len(out))
		if s.disk != nil {
			if derr := s.disk.Put(j.key, []byte(out)); derr != nil {
				// The in-memory result is still served; only persistence
				// across restarts is degraded.
				s.lg.Error("disk cache write failed", "job", j.key, "err", derr)
			}
		}
		// Drop the entry only after the result's Put: a crash between the
		// two leaves an entry that recovery revives from the cache.
		s.dropPendingLocked(j.key)
	}
	j.publishLocked(terminalLine(j))
	close(j.done)
}

// collectProfiles reads the per-run profile files a job's sweep wrote
// into its temporary directory. The names share the experiment prefix and
// carry a zero-padded job index, so glob order is job order.
func (s *Server) collectProfiles(j *job, dir string) []json.RawMessage {
	files, err := filepath.Glob(filepath.Join(dir, "*.profile.json"))
	if err != nil {
		s.lg.Error("profile glob failed", "job", j.key, "err", err)
		return nil
	}
	var out []json.RawMessage
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			s.lg.Error("profile read failed", "job", j.key, "file", file, "err", err)
			continue
		}
		if !json.Valid(data) {
			s.lg.Error("profile is not valid JSON", "job", j.key, "file", file)
			continue
		}
		out = append(out, json.RawMessage(data))
	}
	return out
}

// publishProgress marshals one progress event onto the job's stream and
// wall-stamps it into the job's rate tracker. It is called concurrently
// from the worker goroutines of the running sweep; the bridge is passive
// — it observes the event after the simulation emitted it, so telemetry
// can never perturb a run.
func (s *Server) publishProgress(j *job, ev obs.ProgressEvent) {
	j.prog.Observe(int64(ev.At))
	line := fmt.Sprintf(`{"event":%q,"run":%q,"phase":%q,"at_ps":%d}`,
		ev.Event, ev.Run, ev.Phase, int64(ev.At))
	s.mu.Lock()
	j.publishLocked(line)
	s.mu.Unlock()
}

// terminalLine renders the final JSON line of a job's event stream.
func terminalLine(j *job) string {
	if j.state == StateFailed || j.state == StateCancelled {
		return fmt.Sprintf(`{"event":"job_done","id":%q,"state":%q,"error":%q}`, j.key, j.state, j.errMsg)
	}
	return fmt.Sprintf(`{"event":"job_done","id":%q,"state":%q}`, j.key, j.state)
}

// abortQueuedLocked fails every still-queued job with the aborted state
// (their waiters unblock with a shutdown error). Their pending entries
// deliberately stay: an abort only means this process is going away, so
// the next start re-queues them — a graceful drain loses no accepted work.
func (s *Server) abortQueuedLocked() {
	for _, c := range s.clients {
		for _, j := range s.queue[c] {
			j.state = StateAborted
			j.publishLocked(terminalLine(j))
			close(j.done)
			s.queuedN--
			s.met.jobsAborted.Inc()
			s.lg.Info("job aborted at shutdown", "job", j.key, "experiment", j.spec.Experiment)
		}
		delete(s.queue, c)
	}
	s.clients = nil
	if s.queuedN != 0 {
		// Defensive: the counters above are the only mutators.
		s.lg.Error("queue accounting off at shutdown", "delta", s.queuedN)
		s.queuedN = 0
	}
	s.met.queueDepth.Set(0)
	s.met.setClientQueuesLocked(s.queue)
}

// Shutdown drains the server: no new submissions are admitted, the
// in-flight job (if any) runs to completion and is cached, and queued
// jobs are aborted. It returns once the dispatcher has exited or ctx
// expires (the dispatcher then still exits on its own; only the wait is
// abandoned).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.met.draining.Set(1)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.lg.Info("draining", "queued", s.Stats().Queued)
	select {
	case <-s.dispatcherDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
