package serve

import (
	"memnet/internal/par"
	"memnet/internal/serve/cachedir"
	"memnet/internal/telemetry"
)

// maxClientSeries caps the number of per-client queue-length series the
// server will create. Client names are caller-chosen strings, so an
// unbounded label set would be a cardinality (memory) attack; queue work
// from clients beyond the cap is aggregated into client="_other".
const maxClientSeries = 32

// serveMetrics is the server's wall-clock instrumentation and the one
// ledger of its counts: Stats reads them back. The server always holds a
// registry (its own when Config.Metrics is nil), so every field is set.
type serveMetrics struct {
	reg *telemetry.Registry

	queueDepth    *telemetry.Gauge     // jobs admitted but not yet running
	queuedTotal   *telemetry.Counter   // fresh admissions (cumulative)
	cacheHitMem   *telemetry.Counter   // submissions answered by the in-memory job table
	cacheHitDisk  *telemetry.Counter   // submissions revived from the disk cache
	cacheMiss     *telemetry.Counter   // submissions that required a fresh simulation
	deduped       *telemetry.Counter   // submissions attached to a queued/running twin
	rejectedFull  *telemetry.Counter   // 503s: queue at capacity
	rejectedDrain *telemetry.Counter   // 503s: draining
	queueWait     *telemetry.Histogram // admission → dispatch, seconds
	runSeconds    *telemetry.Histogram // dispatch → terminal state, seconds
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	jobsAborted   *telemetry.Counter
	jobsCancelled *telemetry.Counter // cancel API or deadline expiry
	recoveredJobs *telemetry.Counter // jobs revived/re-queued by restart recovery
	shedRequests  *telemetry.Counter // submissions shed by admission control
	pendingErrors *telemetry.Counter // pending-entry write/delete failures (metric keeps its journal name)
	corruptions   *telemetry.Counter // result blobs quarantined; nil without a cache directory
	subscribers   *telemetry.Gauge   // live event-stream followers
	draining      *telemetry.Gauge   // 0/1
	runningJobs   *telemetry.Gauge   // 0/1 (dispatch is serial)

	clients      map[string]*telemetry.Gauge // per-client queue length, capped
	otherClients *telemetry.Gauge            // aggregate beyond the cap
}

// newServeMetrics registers the server's metric families on reg and wires
// the process-wide pool and per-running-job progress readings as
// scrape-time callbacks on s.
func newServeMetrics(reg *telemetry.Registry, s *Server) *serveMetrics {
	m := &serveMetrics{reg: reg}
	m.queueDepth = reg.Gauge("memnetd_queue_depth", "jobs admitted and waiting to run")
	m.queuedTotal = reg.Counter("memnetd_queued_jobs_total", "jobs admitted to the queue since start")
	m.cacheHitMem = reg.Counter("memnetd_cache_hits_total", "submissions answered without a fresh simulation", "tier", "memory")
	m.cacheHitDisk = reg.Counter("memnetd_cache_hits_total", "submissions answered without a fresh simulation", "tier", "disk")
	m.cacheMiss = reg.Counter("memnetd_cache_misses_total", "submissions that required a fresh simulation")
	m.deduped = reg.Counter("memnetd_deduped_total", "submissions attached to an identical queued or running job")
	m.rejectedFull = reg.Counter("memnetd_rejected_total", "submissions refused with 503", "reason", "queue_full")
	m.rejectedDrain = reg.Counter("memnetd_rejected_total", "submissions refused with 503", "reason", "draining")
	m.queueWait = reg.Histogram("memnetd_queue_wait_seconds", "wall time from admission to dispatch", nil)
	m.runSeconds = reg.Histogram("memnetd_run_seconds", "wall time from dispatch to terminal state", nil)
	m.jobsDone = reg.Counter("memnetd_jobs_total", "jobs reaching a terminal state", "state", "done")
	m.jobsFailed = reg.Counter("memnetd_jobs_total", "jobs reaching a terminal state", "state", "failed")
	m.jobsAborted = reg.Counter("memnetd_jobs_total", "jobs reaching a terminal state", "state", "aborted")
	m.jobsCancelled = reg.Counter("memnetd_jobs_total", "jobs reaching a terminal state", "state", "cancelled")
	m.recoveredJobs = reg.Counter("memnetd_recovered_jobs_total", "jobs revived or re-queued from pending entries after a restart")
	m.shedRequests = reg.Counter("memnetd_shed_requests_total", "submissions shed by admission control (estimated queue delay too high)")
	m.pendingErrors = reg.Counter("memnetd_journal_errors_total", "pending-entry write or delete failures (durability only)")
	m.subscribers = reg.Gauge("memnetd_event_subscribers", "live progress-stream subscribers")
	m.draining = reg.Gauge("memnetd_draining", "1 while the server is shutting down")
	m.runningJobs = reg.Gauge("memnetd_running_jobs", "jobs currently executing (0 or 1)")
	m.clients = make(map[string]*telemetry.Gauge)
	m.otherClients = reg.Gauge("memnetd_client_queue_length", "queued jobs per client", "client", "_other")

	// Worker-pool telemetry: process-wide, read at scrape time. The
	// callbacks run outside the registry lock (see WritePrometheus), so
	// reading through par's atomics or s.mu is safe.
	reg.GaugeFunc("memnetd_pool_width", "configured worker-pool width per job",
		func() float64 { return float64(par.Parallelism()) })
	reg.GaugeFunc("memnetd_pool_busy_workers", "workers currently inside a simulation run",
		func() float64 { return float64(par.Stats().Busy) })
	reg.CounterFunc("memnetd_pool_jobs_total", "pool jobs (individual simulation runs) executed since start",
		func() float64 { return float64(par.Stats().JobsDone) })
	reg.CounterFunc("memnetd_pool_busy_seconds_total", "cumulative wall time inside simulation runs, summed over workers",
		func() float64 { return par.Stats().BusyTime.Seconds() })

	// Per-running-job progress rates: the wall-clock view of the
	// internal/obs progress stream. All zero while no job runs.
	prog := func(read func(telemetry.ProgressSnapshot) float64) func() float64 {
		return func() float64 { return read(s.progressSnapshot()) }
	}
	reg.GaugeFunc("memnetd_job_progress_sim_ps", "furthest simulated time (ps) reported by the running job",
		prog(func(p telemetry.ProgressSnapshot) float64 { return float64(p.SimPs) }))
	reg.GaugeFunc("memnetd_job_progress_sim_ps_per_second", "simulated ps advanced per wall second by the running job",
		prog(func(p telemetry.ProgressSnapshot) float64 { return p.PsPerSecond }))
	reg.GaugeFunc("memnetd_job_progress_events_per_second", "progress events per wall second from the running job",
		prog(func(p telemetry.ProgressSnapshot) float64 { return p.EventsPerSecond }))
	reg.GaugeFunc("memnetd_job_progress_since_last_event_seconds", "wall seconds since the running job last reported progress",
		prog(func(p telemetry.ProgressSnapshot) float64 { return p.SinceLastEvent }))
	return m
}

// diskCounters registers the result store's cachedir instrumentation
// hooks and keeps its quarantine counter for Stats.
func (m *serveMetrics) diskCounters() cachedir.Counters {
	c := cachedir.Counters{
		Hits:        m.reg.Counter("memnetd_disk_cache_hits_total", "disk cache blobs found"),
		Misses:      m.reg.Counter("memnetd_disk_cache_misses_total", "disk cache lookups that found nothing"),
		Writes:      m.reg.Counter("memnetd_disk_cache_writes_total", "results persisted to the disk cache"),
		Errors:      m.reg.Counter("memnetd_disk_cache_errors_total", "disk cache I/O failures"),
		Corruptions: m.reg.Counter("memnetd_cache_corruptions_total", "disk cache blobs quarantined after failing content verification"),
	}
	m.corruptions = c.Corruptions
	return c
}

// setClientQueuesLocked refreshes the per-client queue-length gauges from
// the live queue map. Called under the server mutex after every queue
// mutation; creating a gauge takes the registry lock briefly, which is
// safe because exposition never holds it while reading gauges.
func (m *serveMetrics) setClientQueuesLocked(queue map[string][]*job) {
	other := int64(0)
	for c, q := range queue {
		g, ok := m.clients[c]
		if !ok {
			if len(m.clients) >= maxClientSeries {
				other += int64(len(q))
				continue
			}
			g = m.reg.Gauge("memnetd_client_queue_length", "queued jobs per client", "client", c)
			m.clients[c] = g
		}
		g.Set(int64(len(q)))
	}
	for c, g := range m.clients {
		if _, ok := queue[c]; !ok {
			g.Set(0)
		}
	}
	m.otherClients.Set(other)
}
