package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"memnet/internal/exp"
	"memnet/internal/fault"
	"memnet/internal/sim"
	"memnet/internal/telemetry"
)

// maxFaultEvents bounds an accepted fault schedule. Real schedules have a
// handful of events; an unbounded one is a memory-exhaustion vector.
const maxFaultEvents = 10000

// JobSpec is one simulation job as submitted over the wire: an experiment
// name plus its parameters. The zero value of every parameter means "use
// the default", so {"experiment":"fig7"} is a complete job.
//
// Specs are untrusted input. Canonicalize validates every field against
// the same checks the CLIs apply, fills defaults, and zeroes parameters
// the chosen experiment does not read — so two requests that can only
// produce identical output also hash to the same cache key.
type JobSpec struct {
	Experiment string   `json:"experiment"`
	Scale      float64  `json:"scale,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	GPUs       []int    `json:"gpus,omitempty"`
	DegLinks   int      `json:"deg_links,omitempty"`

	// Faults is an optional seeded fault-injection schedule applied to
	// every run of the job (see internal/fault for the JSON shape).
	Faults *fault.Schedule `json:"faults,omitempty"`

	// MaxRunSeconds is the job's deadline: once it has been running this
	// many wall-clock seconds the server cancels it cooperatively (the
	// sweep unwinds at the next engine-event boundary). Zero means no
	// per-job deadline; the server-wide Config.MaxRunTime still applies,
	// and the tighter of the two wins. Like Client, it is not part of the
	// cache key — the deadline changes when a run is abandoned, never what
	// it computes.
	MaxRunSeconds float64 `json:"max_run_seconds,omitempty"`

	// Client identifies the submitter for queue fairness. It is not part
	// of the cache key: identical work is identical regardless of who
	// asks for it.
	Client string `json:"client,omitempty"`
}

// Canonicalize validates the spec in place and reduces it to canonical
// form: names trimmed, aliases resolved (fig17 → fig16), defaults filled,
// parameters the experiment does not read zeroed, fault events sorted by
// time and an empty fault schedule dropped.
func (s *JobSpec) Canonicalize() error {
	s.Experiment = strings.TrimSpace(s.Experiment)
	if s.Experiment == "" {
		return fmt.Errorf("serve: missing experiment name (known: %s)", strings.Join(exp.Names(), " "))
	}
	e, ok := exp.Find(s.Experiment)
	if !ok {
		return fmt.Errorf("serve: unknown experiment %q (known: %s)", s.Experiment, strings.Join(exp.Names(), " "))
	}
	s.Experiment = e.Name

	for i := range s.Workloads {
		s.Workloads[i] = strings.TrimSpace(s.Workloads[i])
	}
	if s.Scale < 0 || s.DegLinks < 0 {
		// Validate would also catch these, but with Params' flag names;
		// report the wire field names for a wire-level error.
		return fmt.Errorf("serve: scale and deg_links must be non-negative")
	}
	if err := (exp.Params{Scale: s.Scale, Workloads: s.Workloads, GPUs: s.GPUs, DegLinks: s.DegLinks}).Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.MaxRunSeconds < 0 || math.IsNaN(s.MaxRunSeconds) || math.IsInf(s.MaxRunSeconds, 0) {
		return fmt.Errorf("serve: max_run_seconds must be a non-negative finite number")
	}

	// Fill defaults, then zero what the experiment ignores.
	def := exp.DefaultParams()
	if s.Scale == 0 {
		s.Scale = def.Scale
	}
	if len(s.GPUs) == 0 {
		s.GPUs = def.GPUs
	}
	if s.DegLinks == 0 {
		s.DegLinks = def.DegLinks
	}
	if !e.UsesScale {
		s.Scale = 0
	}
	if !e.UsesWorkloads || len(s.Workloads) == 0 {
		s.Workloads = nil
	}
	if !e.UsesGPUs {
		s.GPUs = nil
	}
	if !e.UsesDegLinks {
		s.DegLinks = 0
	}

	if s.Faults.Empty() {
		// An empty schedule is byte-identical to no schedule whatever its
		// seed; collapse it so both forms share one cache entry.
		s.Faults = nil
	} else {
		if len(s.Faults.Events) > maxFaultEvents {
			return fmt.Errorf("serve: fault schedule has %d events (max %d)", len(s.Faults.Events), maxFaultEvents)
		}
		for i, ev := range s.Faults.Events {
			if ev.At < 0 {
				return fmt.Errorf("serve: fault event %d: negative timestamp %d", i, ev.At)
			}
			switch ev.Kind {
			case fault.Transient, fault.LinkDown, fault.GPUDown, fault.VaultDown, fault.PCIeTimeout:
			default:
				return fmt.Errorf("serve: fault event %d: unknown kind %q", i, ev.Kind)
			}
		}
		// Auto link picks are seeded by event index, so order matters:
		// sort exactly as fault.Load does for the CLI's -faults file.
		s.Faults.Sort()
	}
	return nil
}

// Params extracts the registry parameters of a canonicalized spec.
func (s *JobSpec) Params() exp.Params {
	return exp.Params{Scale: s.Scale, Workloads: s.Workloads, GPUs: s.GPUs, DegLinks: s.DegLinks}
}

// Key returns the spec's content address: the lowercase hex SHA-256 of
// its canonical JSON encoding, Client and MaxRunSeconds excluded (neither
// changes what the job computes). Canonicalize must have been called;
// identical work hashes identically by construction.
func (s *JobSpec) Key() string {
	c := *s
	c.Client = ""
	c.MaxRunSeconds = 0
	// encoding/json writes struct fields in declaration order and the
	// fault schedule contains no maps, so the encoding is deterministic.
	data, err := json.Marshal(&c)
	if err != nil {
		// A JobSpec contains only marshalable fields; this is unreachable.
		panic(fmt.Sprintf("serve: marshal job spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateAborted   = "aborted"   // dropped from the queue at shutdown
	StateCancelled = "cancelled" // cancel API or deadline expiry
)

// maxJobEvents caps the progress-event replay buffer per job; a sweep
// emits a few events per simulation, so real jobs sit far below this.
const maxJobEvents = 100000

// job is one admitted simulation job. The server's mutex guards all
// mutable fields; done is closed exactly once when the job reaches a
// terminal state.
type job struct {
	spec  *JobSpec
	key   string
	state string

	// queuedAt (wall clock) feeds the queue-wait histogram; prog converts
	// the job's simulated-time progress events into wall-clock rates.
	// Both are immutable pointers/stamps set at creation, so telemetry
	// readers never race job-state mutation.
	queuedAt time.Time
	prog     *telemetry.Progress

	// stop is the job's cooperative cancel latch, handed to the run in
	// its exp.Env; DELETE /v1/jobs/{id} and deadline expiry trip it, and
	// the sweep unwinds at the next engine-event boundary.
	stop *sim.Stop
	// recovered marks a job revived or re-queued by restart recovery, so
	// operators can tell a recovered result from a fresh one.
	recovered bool
	// seq is the job's submission number, kept in its pending entry so a
	// restart re-queues jobs in submission order.
	seq uint64

	result string // rendered experiment text (terminal state "done")
	errMsg string // terminal states "failed" and "cancelled" (the reason)
	// profiles holds one latency-attribution profile per run of the job
	// (Config.Profile only; empty for cache-revived results).
	profiles []json.RawMessage
	events   []string
	dropped  int // progress events beyond maxJobEvents
	subs     map[chan string]struct{}

	done chan struct{}
}

func newJob(spec *JobSpec, key string) *job {
	return &job{
		spec:     spec,
		key:      key,
		state:    StateQueued,
		stop:     &sim.Stop{},
		queuedAt: time.Now(),
		prog:     telemetry.NewProgress(nil),
		subs:     make(map[chan string]struct{}),
		done:     make(chan struct{}),
	}
}

// publishLocked appends one event line to the replay buffer and fans it
// out to live subscribers (dropping to any subscriber whose channel is
// full: progress is advisory, results are not).
func (j *job) publishLocked(line string) {
	if len(j.events) < maxJobEvents {
		j.events = append(j.events, line)
	} else {
		j.dropped++
	}
	for ch := range j.subs {
		select {
		case ch <- line:
		default:
		}
	}
}

// subscribe atomically snapshots the replay buffer and registers a live
// channel, so no event is lost or duplicated between replay and live
// delivery.
func (j *job) subscribe(mu *sync.Mutex) (replay []string, ch chan string) {
	mu.Lock()
	defer mu.Unlock()
	replay = append([]string(nil), j.events...)
	ch = make(chan string, 256)
	j.subs[ch] = struct{}{}
	return replay, ch
}

func (j *job) unsubscribe(mu *sync.Mutex, ch chan string) {
	mu.Lock()
	defer mu.Unlock()
	delete(j.subs, ch)
}
