// Package ske implements Scalable Kernel Execution (Section III of the
// paper): a runtime that presents N discrete GPUs as a single virtual GPU.
// Unmodified single-GPU kernels are launched into a virtual command queue;
// the runtime generates one launch command per physical GPU carrying the
// range of CTAs that GPU executes.
//
// Three CTA assignment policies are implemented (Section III-B):
//
//   - StaticChunk (the paper's choice): the flattened CTA index space is
//     split into n contiguous chunks, preserving the memory locality of
//     adjacent CTAs (+8% performance, up to +43% L1 / +20% L2 hit rate in
//     the paper's measurements).
//   - RoundRobin: fine-grained interleaving of CTAs across GPUs (the
//     GPGPU-sim baseline the paper compares against).
//   - StaticSteal: StaticChunk plus dynamic CTA stealing — an idle GPU
//     steals unstarted CTAs from the most-loaded GPU (the paper found
//     < 1% benefit; included for the ablation).
//
// Before each launch, the runtime synchronizes the per-GPU page tables
// (Section III-C): a fixed-latency operation performed by the host.
package ske

import (
	"fmt"

	"memnet/internal/audit"
	"memnet/internal/gpu"
	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// Policy selects the CTA assignment strategy.
type Policy int

// Assignment policies.
const (
	StaticChunk Policy = iota
	RoundRobin
	StaticSteal
)

func (p Policy) String() string {
	switch p {
	case StaticChunk:
		return "static-chunk"
	case RoundRobin:
		return "round-robin"
	case StaticSteal:
		return "static+steal"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{StaticChunk, RoundRobin, StaticSteal} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("ske: unknown policy %q", s)
}

// Config tunes the runtime.
type Config struct {
	Policy Policy
	// PageTableSync is the host-side latency of keeping the GPUs' page
	// tables consistent before a launch (Section III-C).
	PageTableSync sim.Time
	// StealChunk is how many CTAs one steal moves.
	StealChunk int
	// WatchdogInterval is the period of the GPU progress watchdog armed by
	// StartWatchdog: a busy device whose progress counter is unchanged over
	// a full interval is declared dead and its CTAs re-queued.
	WatchdogInterval sim.Time
}

// DefaultConfig returns the paper's configuration: static chunked
// assignment.
func DefaultConfig() Config {
	return Config{
		Policy:           StaticChunk,
		PageTableSync:    5 * sim.Microsecond,
		StealChunk:       4,
		WatchdogInterval: 200 * sim.Microsecond,
	}
}

// Stats counts runtime events.
type Stats struct {
	Kernels    stats.Counter
	CTAsStolen stats.Counter
	// GPUsFailed counts devices reclaimed after a failure; CTAsRequeued
	// counts their unfinished CTAs moved to survivors.
	GPUsFailed   stats.Counter
	CTAsRequeued stats.Counter
	// PerGPU[i] is the number of CTAs GPU i executed.
	PerGPU []stats.Counter
}

// Runtime is the SKE virtual GPU.
type Runtime struct {
	eng  *sim.Engine
	cfg  Config
	gpus []*gpu.GPU

	remaining int
	onDone    func()
	kernel    gpu.Kernel

	// owed[g] counts the launch commands GPU g has not yet completed;
	// remaining is always the sum of owed (an audited invariant). dead
	// marks reclaimed devices.
	owed []int
	dead []bool

	// Watchdog state: last-observed per-GPU progress counters, plus the
	// arming flags that keep exactly one tick pending while work is in
	// flight (a free-running ticker would keep the event engine alive
	// forever).
	watchLast     []int64
	watchArmed    bool
	watchPending  bool
	watchInterval sim.Time

	fatal error

	assigned int64 // CTAs handed to GPUs across all launches
	aud      *audit.Registry

	// Tracing state (inert when tracing is off): the runtime track
	// carries kernel spans and steal instants; each GPU's track carries
	// its CTA-chunk spans.
	trace     obs.Track
	gpuTrace  []obs.Track
	launchAt  sim.Time
	chunkAt   []sim.Time
	chunkCTAs []int

	// kprof is the attached compute-side profiler (nil = off); the
	// runtime contributes per-kernel launch counts, page-table sync
	// overhead, and launch-to-completion spans.
	kprof *prof.KernProf

	Stats Stats
}

// New builds a runtime over the given physical GPUs.
func New(eng *sim.Engine, cfg Config, gpus []*gpu.GPU) (*Runtime, error) {
	if len(gpus) == 0 {
		return nil, fmt.Errorf("ske: no GPUs")
	}
	if cfg.StealChunk <= 0 {
		cfg.StealChunk = 1
	}
	r := &Runtime{eng: eng, cfg: cfg, gpus: gpus,
		owed: make([]int, len(gpus)), dead: make([]bool, len(gpus)),
		watchLast: make([]int64, len(gpus)),
		Stats:     Stats{PerGPU: make([]stats.Counter, len(gpus))}}
	for i := range r.watchLast {
		r.watchLast[i] = -1
	}
	return r, nil
}

// NumGPUs returns the virtual GPU's physical device count.
func (r *Runtime) NumGPUs() int { return len(r.gpus) }

// Assign partitions the flattened CTA index space [0, n) per the policy.
// Exposed for tests and the scheduler-comparison experiment; degenerate
// inputs (no GPUs, negative n) return an empty partition instead of
// dividing by zero.
func Assign(policy Policy, n, gpus int) [][]int {
	if gpus <= 0 {
		return nil
	}
	out := make([][]int, gpus)
	if n <= 0 {
		return out
	}
	switch policy {
	case RoundRobin:
		for i := 0; i < n; i++ {
			g := i % gpus
			out[g] = append(out[g], i)
		}
	default: // StaticChunk and StaticSteal start from chunks
		base := n / gpus
		extra := n % gpus
		next := 0
		for g := 0; g < gpus; g++ {
			k := base
			if g < extra {
				k++
			}
			for i := 0; i < k; i++ {
				out[g] = append(out[g], next)
				next++
			}
		}
	}
	return out
}

// Launch executes kernel across the virtual GPU and calls onDone when every
// physical GPU has drained. A multi-dimensional grid is assumed already
// flattened to [0, NumCTAs) (Section III-B).
func (r *Runtime) Launch(kernel gpu.Kernel, onDone func()) {
	if r.remaining > 0 {
		panic("ske: Launch while a kernel is in flight")
	}
	live := r.liveGPUs()
	if len(live) == 0 {
		r.fail(fmt.Errorf("ske: launch of %q with no surviving GPUs", kernel.Name()))
		return
	}
	r.Stats.Kernels.Inc()
	r.kernel = kernel
	r.onDone = onDone
	if r.kprof != nil {
		sp := r.kprof.Span(kernel.Name())
		sp.Launches++
		sp.SyncPS += int64(r.cfg.PageTableSync)
	}
	parts := Assign(r.cfg.Policy, kernel.NumCTAs(), len(live))
	if r.aud != nil {
		r.auditAssign(parts, kernel.NumCTAs(), len(live))
	}
	r.assigned += int64(kernel.NumCTAs())
	r.remaining = len(live)
	for _, g := range live {
		r.owed[g]++
	}
	r.launchAt = r.eng.Now()
	if r.trace.Enabled() {
		r.trace.Instant(fmt.Sprintf("launch %s (%d CTAs)", kernel.Name(), kernel.NumCTAs()), r.launchAt)
	}
	if r.watchArmed {
		// Clear the progress baselines: a busy device is only declared dead
		// after a full interval of *observed* frozen progress, so a launch
		// whose first instruction takes longer than one tick is not a death.
		for i := range r.watchLast {
			r.watchLast[i] = -1
		}
		r.armWatchdog()
	}
	// Page-table synchronization precedes the per-GPU launch commands.
	r.eng.After(r.cfg.PageTableSync, func() {
		for pi, part := range parts {
			g, part := live[pi], part
			if r.dead[g] {
				// The target died during the page-table sync window (its
				// owed count was already struck by ReclaimGPU); hand the
				// partition to a survivor instead.
				s := r.firstLive()
				if s < 0 {
					r.fail(fmt.Errorf("ske: %d CTAs of %q lost: no surviving GPUs", len(part), kernel.Name()))
					continue
				}
				g = s
				r.owed[g]++
				r.remaining++
			}
			r.Stats.PerGPU[g].Add(int64(len(part)))
			r.noteChunk(g, len(part))
			r.gpus[g].Launch(kernel, part, func() { r.gpuDone(g) })
		}
	})
}

func (r *Runtime) gpuDone(g int) {
	if r.dead[g] {
		// A completion racing with reclamation (e.g. the zero-CTA launch
		// acknowledgment, which has no context to cancel): the device's
		// owed count was already struck and its work re-queued.
		return
	}
	r.endChunk(g)
	if r.cfg.Policy == StaticSteal {
		if victim := r.mostLoaded(); victim >= 0 {
			stolen := r.gpus[victim].StealCTAs(r.cfg.StealChunk)
			if len(stolen) > 0 {
				r.Stats.CTAsStolen.Add(int64(len(stolen)))
				r.Stats.PerGPU[victim].Add(-int64(len(stolen)))
				r.Stats.PerGPU[g].Add(int64(len(stolen)))
				if r.trace.Enabled() {
					r.trace.Instant(fmt.Sprintf("steal %d CTAs gpu%d<-gpu%d",
						len(stolen), g, victim), r.eng.Now())
				}
				// Relaunch this GPU with the stolen work.
				r.noteChunk(g, len(stolen))
				r.gpus[g].Launch(r.kernel, stolen, func() { r.gpuDone(g) })
				return
			}
		}
	}
	r.owed[g]--
	r.remaining--
	r.maybeFinish()
}

func (r *Runtime) maybeFinish() {
	if r.remaining == 0 && r.onDone != nil {
		if r.trace.Enabled() {
			r.trace.Span(r.kernel.Name(), r.launchAt, r.eng.Now())
		}
		if r.kprof != nil {
			r.kprof.Span(r.kernel.Name()).SpanPS += int64(r.eng.Now() - r.launchAt)
		}
		done := r.onDone
		r.onDone = nil
		done()
	}
}

// Err returns the runtime's fatal error, if any: work was lost with no
// surviving GPU to re-queue it on.
func (r *Runtime) Err() error { return r.fatal }

func (r *Runtime) fail(err error) {
	if r.fatal == nil {
		r.fatal = err
	}
}

// liveGPUs returns the indices of devices not yet reclaimed.
func (r *Runtime) liveGPUs() []int {
	var live []int
	for i := range r.gpus {
		if !r.dead[i] {
			live = append(live, i)
		}
	}
	return live
}

// firstLive returns the lowest-numbered surviving device, or -1.
func (r *Runtime) firstLive() int {
	for i := range r.gpus {
		if !r.dead[i] {
			return i
		}
	}
	return -1
}

// ReclaimGPU declares device g dead: the GPU is killed (fail-stop), its
// unfinished CTAs — queued and resident — are reaped, and the chunks are
// re-queued round-robin across the survivors so the kernel still
// completes. CTA conservation holds throughout: the dead GPU's accepted
// and per-GPU executed ledgers are debited by exactly the CTAs handed
// back. Idempotent; with no survivors the runtime records a fatal error.
func (r *Runtime) ReclaimGPU(g int) error {
	if g < 0 || g >= len(r.gpus) {
		return fmt.Errorf("ske: reclaim of unknown GPU %d", g)
	}
	if r.dead[g] {
		return nil
	}
	r.dead[g] = true
	r.Stats.GPUsFailed.Inc()
	r.gpus[g].Kill()
	chunks := r.gpus[g].Reap()
	total := 0
	for _, c := range chunks {
		total += len(c.CTAs)
	}
	r.Stats.PerGPU[g].Add(-int64(total))
	r.remaining -= r.owed[g]
	r.owed[g] = 0
	if r.trace.Enabled() {
		r.trace.Instant(fmt.Sprintf("gpu%d failed: requeue %d CTAs", g, total), r.eng.Now())
	}
	live := r.liveGPUs()
	if len(live) == 0 {
		if total > 0 {
			err := fmt.Errorf("ske: GPU %d failed with no survivors; %d CTAs lost", g, total)
			r.fail(err)
			return err
		}
		return nil
	}
	r.Stats.CTAsRequeued.Add(int64(total))
	for i, c := range chunks {
		s, c := live[i%len(live)], c
		r.owed[s]++
		r.remaining++
		r.Stats.PerGPU[s].Add(int64(len(c.CTAs)))
		r.noteChunk(s, len(c.CTAs))
		r.gpus[s].Launch(c.Kernel, c.CTAs, func() { r.gpuDone(s) })
	}
	r.maybeFinish()
	return nil
}

// StartWatchdog arms the progress watchdog: every interval, a device that
// is busy but whose progress counter has not advanced since the previous
// tick is declared dead and reclaimed. The tick chain only stays scheduled
// while launch commands are outstanding, so an idle system still drains.
func (r *Runtime) StartWatchdog(interval sim.Time) {
	if r.watchArmed || interval <= 0 {
		return
	}
	r.watchArmed = true
	r.watchInterval = interval
	r.armWatchdog()
}

func (r *Runtime) armWatchdog() {
	if r.watchPending {
		return
	}
	r.watchPending = true
	r.eng.After(r.watchInterval, r.watchTick)
}

func (r *Runtime) watchTick() {
	r.watchPending = false
	for i, g := range r.gpus {
		if r.dead[i] {
			continue
		}
		p := g.Progress()
		if g.Busy() && p == r.watchLast[i] {
			// Frozen across a whole interval while holding work: dead.
			r.ReclaimGPU(i)
			continue
		}
		if g.Busy() {
			r.watchLast[i] = p
		} else {
			r.watchLast[i] = -1
		}
	}
	if r.remaining > 0 {
		r.armWatchdog()
	}
}

// Instrument attaches the runtime to a run's collectors; a nil one leaves
// that part of the runtime inert. Core instruments each GPU itself.
//
//   - Audit: the "ske" checker, plus the inline partition audit on every
//     launch. Every launch's partitions cover [0, NumCTAs) exactly once,
//     and the per-GPU execution counters always sum to the CTAs assigned
//     so far — stealing moves CTAs between GPUs but must never create or
//     lose one.
//   - Trace: one track for kernel-level events and one per physical GPU
//     for its CTA-chunk spans.
//   - Prof: the compute-side profiler's per-kernel spans.
func (r *Runtime) Instrument(p obs.Probe) {
	if p.Audit != nil {
		r.aud = p.Audit
		p.Audit.Register("ske", func(report func(string)) {
			var sum int64
			for i := range r.Stats.PerGPU {
				v := r.Stats.PerGPU[i].Value()
				if v < 0 {
					report(fmt.Sprintf("GPU %d CTA count negative: %d (over-steal)", i, v))
				}
				sum += v
			}
			if sum != r.assigned {
				report(fmt.Sprintf("CTA conservation: per-GPU counts sum to %d, want %d assigned (steal bookkeeping leak)", sum, r.assigned))
			}
			owedSum := 0
			for i, o := range r.owed {
				if o < 0 {
					report(fmt.Sprintf("GPU %d owes %d launch completions (negative)", i, o))
				}
				if o > 0 && r.dead[i] {
					report(fmt.Sprintf("dead GPU %d still owes %d launch completions", i, o))
				}
				owedSum += o
			}
			if r.remaining != owedSum {
				report(fmt.Sprintf("in-flight launch count %d != sum of per-GPU owed %d", r.remaining, owedSum))
			}
			if r.remaining == 0 && r.onDone != nil {
				report("kernel completion callback stranded after all GPUs drained")
			}
		})
	}
	if t := p.Trace; t != nil {
		r.trace = t.NewTrack("ske")
		r.gpuTrace = make([]obs.Track, len(r.gpus))
		for g := range r.gpus {
			r.gpuTrace[g] = t.NewTrack(fmt.Sprintf("ske/gpu%d", g))
		}
		r.chunkAt = make([]sim.Time, len(r.gpus))
		r.chunkCTAs = make([]int, len(r.gpus))
	}
	if p.Prof != nil {
		r.kprof = p.Prof.Kern
	}
}

// noteChunk marks the start of a CTA chunk handed to GPU g.
func (r *Runtime) noteChunk(g, ctas int) {
	if r.chunkAt == nil {
		return
	}
	r.chunkAt[g] = r.eng.Now()
	r.chunkCTAs[g] = ctas
}

// endChunk closes GPU g's open chunk span when its launch drains.
func (r *Runtime) endChunk(g int) {
	if r.chunkAt == nil {
		return
	}
	r.gpuTrace[g].Span(fmt.Sprintf("%d CTAs", r.chunkCTAs[g]), r.chunkAt[g], r.eng.Now())
}

// auditAssign verifies a launch's partitions cover the CTA space exactly.
func (r *Runtime) auditAssign(parts [][]int, n, gpus int) {
	if len(parts) != gpus {
		r.aud.Reportf("ske", "Assign produced %d partitions for %d live GPUs", len(parts), gpus)
		return
	}
	seen := make([]bool, n)
	total := 0
	for g, part := range parts {
		for _, cta := range part {
			if cta < 0 || cta >= n {
				r.aud.Reportf("ske", "Assign gave GPU %d CTA %d outside [0,%d)", g, cta, n)
				continue
			}
			if seen[cta] {
				r.aud.Reportf("ske", "Assign placed CTA %d on more than one GPU", cta)
				continue
			}
			seen[cta] = true
			total++
		}
	}
	if total != n {
		r.aud.Reportf("ske", "Assign covered %d CTAs, want %d", total, n)
	}
}

// mostLoaded returns the GPU with the largest unstarted-CTA queue, or -1.
func (r *Runtime) mostLoaded() int {
	best, n := -1, 0
	for i, g := range r.gpus {
		if q := g.QueuedCTAs(); q > n {
			best, n = i, q
		}
	}
	return best
}
