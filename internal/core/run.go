package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"memnet/internal/energy"
	"memnet/internal/mem"
	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// Result summarizes one complete run (Fig. 14's runtime breakdown plus the
// network, cache and memory statistics the other figures report).
type Result struct {
	Workload string
	Arch     string
	Topo     string
	NumGPUs  int

	// Runtime breakdown (ps).
	H2D    sim.Time // host-to-device memcpy
	Kernel sim.Time // kernel execution (all iterations, incl. launch)
	Host   sim.Time // host-thread compute phases (CG.S / FT.S)
	D2H    sim.Time // device-to-host memcpy
	Total  sim.Time

	// Memory-network statistics.
	NetActiveJ     float64
	NetIdleJ       float64
	NetEnergyJ     float64
	AvgPktLatency  sim.Time
	P99PktLatency  sim.Time
	AvgHops        float64
	AvgPassHops    float64
	RouterChannels int // bidirectional router-to-router channels (Fig. 12)
	Traffic        *stats.Matrix

	// Device statistics.
	L1HitRate     float64
	L2HitRate     float64
	GPUMemLatency sim.Time
	HostMemLat    sim.Time
	RowHitRate    float64
	CTAsPerGPU    []int64
	CTAsStolen    int64
	HostStallPS   int64
}

// ErrStopped marks a run torn down by a cooperative stop signal (a cancel
// API or an expired deadline; see Config.Stop). Callers distinguish it
// from simulation failures with errors.Is — the exp fan-out wraps run
// errors with %w, so the sentinel survives to a serving layer.
var ErrStopped = errors.New("run stopped")

// Run builds the system for cfg and executes the workload end to end.
func Run(cfg Config) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.Execute()
}

// Execute runs the bound workload through its phases: H2D copy (if the
// architecture copies), kernel iterations interleaved with host compute,
// and the D2H copy, then gathers statistics.
func (s *System) Execute() (*Result, error) {
	res := &Result{
		Workload: s.w.Abbr,
		Arch:     s.cfg.Arch.String(),
		Topo:     s.cfg.Topo.String(),
		NumGPUs:  s.cfg.NumGPUs,
	}
	s.emitProgress(obs.ProgressRunStart, "")
	if s.cfg.Arch.needsCopy() {
		t, err := s.runPhase("h2d memcpy", func(done func()) { s.memcpy(true, done) })
		if err != nil {
			return nil, err
		}
		res.H2D = t
	}
	kernel := s.w.Kernel(s.binding)
	for iter := 0; iter < s.w.Iterations(); iter++ {
		t, err := s.runPhase("kernel", func(done func()) { s.rt.Launch(kernel, done) })
		if err != nil {
			return nil, err
		}
		res.Kernel += t
		if tr := s.w.HostTrace(s.binding, iter); tr != nil {
			// The kernel may have written buffers the host reads next;
			// under the relaxed consistency model the host's caches are
			// invalidated before it consumes GPU output.
			s.host.FlushCaches()
			t, err := s.runPhase("host compute", func(done func()) { s.host.Run(tr, done) })
			if err != nil {
				return nil, err
			}
			res.Host += t
		}
	}
	if s.cfg.Arch.needsCopy() && s.w.D2HBytes() > 0 {
		t, err := s.runPhase("d2h memcpy", func(done func()) { s.memcpy(false, done) })
		if err != nil {
			return nil, err
		}
		res.D2H = t
	}
	res.Total = res.H2D + res.Kernel + res.Host + res.D2H
	if err := s.checkAudits("end of run"); err != nil {
		return nil, err
	}
	if err := s.flushObs(); err != nil {
		return nil, err
	}
	if err := s.flushProf(); err != nil {
		return nil, err
	}
	s.collect(res)
	s.emitProgress(obs.ProgressRunDone, "")
	return res, nil
}

// emitProgress forwards one event to the resolved progress sink. It is
// called only at run and phase boundaries, where the engine is between
// events, so the sink can never perturb the simulation.
func (s *System) emitProgress(event, phase string) {
	if s.prog == nil {
		return
	}
	s.prog(obs.ProgressEvent{Event: event, Run: s.runLabel, Phase: phase, At: s.eng.Now()})
}

// flushObs closes the final (possibly partial) metrics window and writes
// the trace and metrics files named by the config. It runs after the last
// event, so file I/O cannot perturb the simulation.
func (s *System) flushObs() error {
	if s.probe.Trace == nil && s.probe.Metrics == nil {
		return nil
	}
	s.probe.Metrics.Finish(s.eng.Now())
	if s.cfg.TraceOut != "" && s.probe.Trace != nil {
		f, err := os.Create(s.cfg.TraceOut)
		if err != nil {
			return fmt.Errorf("core: trace output: %w", err)
		}
		werr := s.probe.Trace.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("core: trace output: %w", werr)
		}
	}
	if s.cfg.MetricsOut != "" && s.probe.Metrics != nil {
		f, err := os.Create(s.cfg.MetricsOut)
		if err != nil {
			return fmt.Errorf("core: metrics output: %w", err)
		}
		var werr error
		if strings.HasSuffix(s.cfg.MetricsOut, ".jsonl") {
			werr = s.probe.Metrics.WriteJSONL(f)
		} else {
			werr = s.probe.Metrics.WriteCSV(f)
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("core: metrics output: %w", werr)
		}
	}
	return nil
}

// flushProf assembles the latency-attribution profile from the per-
// component collectors and writes it to the file named by the config (if
// any). It runs after the last event, so snapshotting and file I/O cannot
// perturb the simulation.
func (s *System) flushProf() error {
	if s.probe.Prof == nil {
		return nil
	}
	p := &prof.Profile{
		Run: s.runLabel,
		Net: s.net.ProfSnapshot(),
	}
	p.Kernels, p.KernelSpans = s.probe.Prof.Kern.Snapshot()
	for i, h := range s.hmcs {
		p.HMCs = append(p.HMCs, h.ProfSnapshot(i))
	}
	if s.fabric != nil {
		sec := s.fabric.ProfSnapshot()
		p.PCIe = &sec
	}
	s.profile = p
	if s.cfg.ProfileOut == "" {
		return nil
	}
	f, err := os.Create(s.cfg.ProfileOut)
	if err != nil {
		return fmt.Errorf("core: profile output: %w", err)
	}
	werr := prof.WriteJSON(f, p)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("core: profile output: %w", werr)
	}
	return nil
}

// checkAudits runs the registered invariant checkers (a no-op with auditing
// off) and converts any violations into an error naming the failing point.
func (s *System) checkAudits(where string) error {
	if s.probe.Audit == nil {
		return nil
	}
	s.probe.Audit.Check()
	if err := s.probe.Audit.Err(); err != nil {
		return fmt.Errorf("core: audit after %s: %w", where, err)
	}
	return nil
}

// runPhase starts a phase and drives the engine until its completion
// callback fires, returning the elapsed simulated time. A forward-progress
// watchdog distinguishes the two failure modes: deadlock (the engine runs
// out of events before the callback fires) and livelock (events keep
// firing but the system's activity counters stop advancing for a full
// watchdog window).
func (s *System) runPhase(name string, start func(done func())) (sim.Time, error) {
	t0 := s.eng.Now()
	s.emitProgress(obs.ProgressPhaseStart, name)
	finished := false
	start(func() { finished = true })
	wd := s.cfg.Watchdog
	if wd == 0 {
		wd = 5 * sim.Millisecond
	}
	lastProg := int64(-1)
	lastProgAt := t0
	livelocked := false
	stopped := false
	// The condition runs between events; the sampler schedules nothing and
	// the watchdog only reads counters, so the event sequence matches the
	// plain loop exactly. Time advances only inside steps, so a single
	// long event gap (e.g. an analytic bulk memcpy) can never trip the
	// watchdog — only real event churn without progress can. The stop poll
	// is one nil-safe atomic load, so an attached-but-untripped canceller
	// is as invisible as no canceller at all; a tripped one halts the run
	// before the next event, well inside one watchdog interval.
	s.eng.RunWhile(func() bool {
		if s.probe.Metrics != nil {
			s.probe.Metrics.Advance(s.eng.Now())
		}
		if finished {
			return false
		}
		if s.stop.Tripped() {
			stopped = true
			return false
		}
		if s.fatal == nil {
			s.fatal = s.rt.Err()
		}
		if s.fatal != nil {
			return false
		}
		if wd > 0 {
			if p := s.progress(); p != lastProg {
				lastProg = p
				lastProgAt = s.eng.Now()
			} else if s.eng.Now()-lastProgAt > wd {
				livelocked = true
				return false
			}
		}
		return true
	})
	if s.fatal != nil {
		return 0, fmt.Errorf("core: phase %q aborted at t=%d ps: %w", name, s.eng.Now(), s.fatal)
	}
	if stopped {
		reason := s.stop.Reason()
		if reason == "" {
			reason = "stop signal tripped"
		}
		return 0, fmt.Errorf("core: phase %q stopped at t=%d ps (%s): %w", name, s.eng.Now(), reason, ErrStopped)
	}
	if !finished {
		var err error
		if livelocked {
			err = fmt.Errorf("core: phase %q livelocked: events still firing at t=%d ps but no forward progress since t=%d ps",
				name, s.eng.Now(), lastProgAt)
		} else {
			err = fmt.Errorf("core: phase %q deadlocked at t=%d ps (no events left; last progress at t=%d ps)",
				name, s.eng.Now(), lastProgAt)
		}
		if s.cfg.DumpStateOnDeadlock {
			var dump bytes.Buffer
			s.net.DumpState(&dump)
			err = fmt.Errorf("%w\nnetwork state:\n%s", err, dump.String())
		}
		return 0, err
	}
	s.hostTrack.Span(name, t0, s.eng.Now())
	if err := s.checkAudits(fmt.Sprintf("phase %q", name)); err != nil {
		return 0, err
	}
	s.emitProgress(obs.ProgressPhaseEnd, name)
	return s.eng.Now() - t0, nil
}

// memcpy transfers the workload's host-initialized (h2d) or output (d2h)
// buffers between the host and the device clusters holding their pages.
func (s *System) memcpy(h2d bool, done func()) {
	byCluster := s.copyBytesByCluster(h2d)
	if len(byCluster) == 0 {
		s.eng.After(0, done)
		return
	}
	// DMA writes invalidate host-cached lines (MOESI InvalidateAll); the
	// shootdown cost is folded into the DMA latency below at page
	// granularity.
	var dirtyPages int64
	if h2d {
		for _, spec := range s.w.Buffers() {
			if !spec.HostInit {
				continue
			}
			buf := s.binding[spec.Name]
			pb := uint64(s.space.Mapping().PageBytes())
			for off := uint64(0); off < buf.Size; off += pb {
				act := s.dir.InvalidateAll(buf.Base + mem.Addr(off))
				if act.WroteBack {
					dirtyPages++
				}
			}
		}
	}
	shootdown := sim.Time(dirtyPages) * 20 * sim.Nanosecond

	// Walk clusters in ascending order, never in map order: the PCIe
	// transfers' trace spans and the CMN float sum below must not depend
	// on map iteration.
	clusters := make([]int, 0, len(byCluster))
	for c := range byCluster {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)

	if s.cfg.Arch.hasPCIe() {
		remaining := len(byCluster)
		cpuEP := s.ep[s.cfg.cpuCluster()]
		finish := func() {
			remaining--
			if remaining == 0 {
				s.eng.After(shootdown, done)
			}
		}
		// The phase time is order-independent (all transfers serialize on
		// the CPU link); only the per-transfer spans follow the order.
		for _, c := range clusters {
			if h2d {
				s.fabric.Send(cpuEP, s.ep[c], byCluster[c], finish)
			} else {
				s.fabric.Send(s.ep[c], cpuEP, byCluster[c], finish)
			}
		}
		return
	}
	// CMN: bulk DMA over the CPU memory network, modeled analytically.
	// cudaMemcpy transfers serialize on the single DMA stream, each
	// bounded by the destination GPU's CMN attachment bandwidth.
	chanBW := float64(s.cfg.Net.FlitBytes) * s.cfg.Net.ClockMHz * 1e6 // bytes/s per channel
	perGPU := float64(cmnChansPerGPU) * chanBW
	var total float64
	for _, c := range clusters {
		total += float64(byCluster[c]) / perGPU
	}
	dur := sim.Time(total*1e12) + 2*sim.Microsecond + shootdown
	s.eng.After(dur, done)
}

// copyBytesByCluster sums, per device cluster, the bytes of pages that an
// H2D (d2h=false) or D2H copy must move.
func (s *System) copyBytesByCluster(h2d bool) map[int]int64 {
	out := make(map[int]int64)
	pb := uint64(s.space.Mapping().PageBytes())
	for _, spec := range s.w.Buffers() {
		if h2d && !spec.HostInit {
			continue
		}
		if !h2d && !spec.Output {
			continue
		}
		buf := s.binding[spec.Name]
		for off := uint64(0); off < buf.Size; off += pb {
			loc := s.space.LocOf(buf.Base + mem.Addr(off))
			n := pb
			if off+n > buf.Size {
				n = buf.Size - off
			}
			out[loc.Cluster] += int64(n)
		}
	}
	return out
}

// collect gathers post-run statistics into res.
func (s *System) collect(res *Result) {
	busy, total := s.net.AllChannelBusy()
	p := energy.Default()
	p.FlitBytes = s.cfg.Net.FlitBytes
	res.NetActiveJ, res.NetIdleJ = p.Split(busy, total)
	res.NetEnergyJ = res.NetActiveJ + res.NetIdleJ
	res.AvgPktLatency = sim.Time(s.net.Stats.Latency.Value())
	res.P99PktLatency = sim.Time(s.net.Stats.LatencyHist.Percentile(99))
	res.AvgHops = s.net.Stats.Hops.Value()
	res.AvgPassHops = s.net.Stats.PassHops.Value()
	res.RouterChannels = s.net.NumRouterChannels() / 2
	res.Traffic = s.net.Stats.Traffic

	var l1h, l1m int64
	var memLat stats.Mean
	for _, g := range s.gpus {
		h, m := g.L1Stats()
		l1h += h
		l1m += m
		if g.Stats.MemLatency.Count() > 0 {
			memLat.Add(g.Stats.MemLatency.Value())
		}
	}
	if l1h+l1m > 0 {
		res.L1HitRate = float64(l1h) / float64(l1h+l1m)
	}
	var l2h, l2m int64
	for _, g := range s.gpus {
		st := g.L2CacheStats()
		l2h += st.ReadHits.Value() + st.WriteHits.Value()
		l2m += st.ReadMisses.Value() + st.WriteMisses.Value()
	}
	if l2h+l2m > 0 {
		res.L2HitRate = float64(l2h) / float64(l2h+l2m)
	}
	res.GPUMemLatency = sim.Time(memLat.Value())
	res.HostMemLat = sim.Time(s.host.Stats.MemLatency.Value())
	res.HostStallPS = s.host.Stats.StallPS.Value()

	var rh, rm int64
	for _, h := range s.hmcs {
		rh += h.Stats.RowHits.Value()
		rm += h.Stats.RowMisses.Value()
	}
	if rh+rm > 0 {
		res.RowHitRate = float64(rh) / float64(rh+rm)
	}
	for i := range s.rt.Stats.PerGPU {
		res.CTAsPerGPU = append(res.CTAsPerGPU, s.rt.Stats.PerGPU[i].Value())
	}
	res.CTAsStolen = s.rt.Stats.CTAsStolen.Value()
}
