// Package gpu models a discrete GPU executing CUDA-style kernels: 64
// stream multiprocessors (SMs) at 1400 MHz, up to 8 CTAs and 1024 threads
// per SM, per-SM L1 caches and a shared banked L2, all per Table I of the
// paper.
//
// Kernels are trace-generated: a workload supplies, per warp, a stream of
// WarpOps (compute cycles plus coalesced memory line accesses). Execution
// is event-driven — each warp is an independent event chain that contends
// for its SM's issue slot, L1 port, L2 banks and the memory port — which
// captures the GPU's latency-hiding behavior (many warps in flight per SM)
// without per-cycle ticking.
//
// Per Section III-D, global memory uses write-through/write-no-allocate L1
// and L2 caches, and atomic operations evict the line from L1/L2 and
// execute at the HMC.
package gpu

import (
	"fmt"

	"memnet/internal/cache"
	"memnet/internal/mem"
	"memnet/internal/obs"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// OpKind classifies a warp instruction.
type OpKind int

// Warp op kinds.
const (
	OpCompute OpKind = iota
	OpLoad
	OpStore
	OpAtomic
)

// WarpOp is one warp-wide instruction: Compute pipeline cycles, then an
// optional memory operation on the given coalesced cache-line addresses
// (virtual). A pure compute op has Kind OpCompute and no Addrs.
type WarpOp struct {
	Compute int
	Kind    OpKind
	Addrs   []mem.Addr
}

// WarpTrace yields a warp's instruction stream.
type WarpTrace interface {
	Next() (WarpOp, bool)
}

// Kernel describes a launchable kernel: its CTA grid and per-warp traces.
type Kernel interface {
	Name() string
	NumCTAs() int
	ThreadsPerCTA() int
	// WarpTrace returns the instruction stream of warp w of CTA cta.
	WarpTrace(cta, warp int) WarpTrace
}

// MemPort is the GPU's connection below its L2: the local HMC star, the
// memory network, or the PCIe path to a remote GPU, provided by the system.
type MemPort interface {
	// Access performs the line-granularity access req describes (Addr is
	// virtual) and finishes req (req.Finish) when the response or write
	// acknowledgment returns.
	Access(req *mem.Req)
}

// Config sizes one GPU (defaults per Table I).
type Config struct {
	Cores             int // SMs per GPU
	MaxCTAsPerCore    int
	MaxThreadsPerCore int
	WarpSize          int
	IssuePerCycle     int // warp instructions issued per SM cycle

	CoreClockMHz float64
	L2ClockMHz   float64

	L1      cache.Config
	L2      cache.Config
	L2Banks int

	L1HitCycles    int      // core cycles for an L1 hit
	XbarLatency    sim.Time // one-way SM <-> L2 crossbar latency
	L2ServiceCycle int      // L2 cycles per bank access
	L2HitExtra     sim.Time // additional latency for an L2 hit response

	MaxOutstanding int      // in-flight memory ops per SM (MSHR limit)
	RetryCycles    int      // core cycles before retrying a full MSHR
	LaunchLatency  sim.Time // CTA launch overhead
}

// DefaultConfig returns the Table I GPU.
func DefaultConfig() Config {
	return Config{
		Cores:             64,
		MaxCTAsPerCore:    8,
		MaxThreadsPerCore: 1024,
		WarpSize:          32,
		IssuePerCycle:     1,
		CoreClockMHz:      1400,
		L2ClockMHz:        700,
		L1: cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 4,
			Policy: cache.WriteThroughNoAllocate},
		L2: cache.Config{SizeBytes: 2 << 20, LineBytes: 128, Ways: 16,
			Policy: cache.WriteThroughNoAllocate},
		L2Banks:        8,
		L1HitCycles:    24,
		XbarLatency:    20 * sim.Nanosecond,
		L2ServiceCycle: 2,
		L2HitExtra:     10 * sim.Nanosecond,
		MaxOutstanding: 48,
		RetryCycles:    16,
		LaunchLatency:  2 * sim.Microsecond,
	}
}

// Stats aggregates GPU activity.
type Stats struct {
	CTAs       stats.Counter
	WarpInstrs stats.Counter
	Loads      stats.Counter
	Stores     stats.Counter
	Atomics    stats.Counter
	MemLatency stats.Mean // below-L2 round trip (ps)
}

// launchCtx is one in-flight kernel launch. A GPU can hold several at
// once, because SKE launches onto a device that is still busy in three
// cases: ReclaimGPU re-queues a dead GPU's chunks onto survivors still
// running their own, Launch hands a partition to a survivor when its
// target dies during page-table sync, and stealing relaunches a GPU
// before its old context is reaped. The contexts' CTAs space-share the
// SMs under the per-SM CTA and thread limits.
type launchCtx struct {
	kernel      Kernel
	pending     []int
	activeCTAs  int
	activeIDs   []int // CTA indices currently resident on SMs
	memInFlight int64
	onDone      func()

	// krec is this launch's (kernel, GPU) attribution record, resolved
	// once at Launch so the per-instruction hot path costs one pointer
	// check; nil unless a profiler is attached.
	krec *prof.KernelGPU
}

func (c *launchCtx) busy() bool {
	return c.activeCTAs > 0 || len(c.pending) > 0 || c.memInFlight > 0
}

// GPU is one device.
type GPU struct {
	eng     *sim.Engine
	cfg     Config
	id      int
	coreClk sim.Clock
	l2Clk   sim.Clock

	sms     []*sm
	l2      *cache.Cache
	l2Banks []sim.Time // per-bank next-free time
	port    MemPort

	// reqs is the system's request free list; writeBacks counts L2
	// eviction write-backs in flight (only under the write-back L2
	// ablation), which no SM waits for.
	reqs       *mem.Reqs
	writeBacks int

	ctxs []*launchCtx
	next int // round-robin context pointer for SM filling

	// failed marks a fail-stop device: no new CTAs start, resident warps
	// halt at their next event, and in-flight memory traffic drains.
	failed bool

	// accepted counts CTAs this GPU is responsible for executing: added by
	// Launch, removed by StealCTAs. The audit checks it against
	// executed + queued + active at every checkpoint.
	accepted int64

	// trace carries the SM-occupancy counter series (inert when tracing
	// is off).
	trace obs.Track

	// kprof is the attached compute-side profiler (nil = off).
	kprof *prof.KernProf

	Stats Stats
}

// New builds a GPU with the given device id and memory port. Its accesses
// below the L1s draw their requests from reqs.
func New(eng *sim.Engine, id int, cfg Config, port MemPort, reqs *mem.Reqs) (*GPU, error) {
	if cfg.Cores <= 0 || cfg.WarpSize <= 0 || cfg.IssuePerCycle <= 0 {
		return nil, fmt.Errorf("gpu: invalid config %+v", cfg)
	}
	if port == nil || reqs == nil {
		return nil, fmt.Errorf("gpu: nil memory port or request list")
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("gpu: L2: %w", err)
	}
	g := &GPU{
		eng:     eng,
		cfg:     cfg,
		id:      id,
		coreClk: sim.ClockMHz(cfg.CoreClockMHz),
		l2Clk:   sim.ClockMHz(cfg.L2ClockMHz),
		l2:      l2,
		l2Banks: make([]sim.Time, cfg.L2Banks),
		port:    port,
		reqs:    reqs,
	}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("gpu: L1: %w", err)
		}
		g.sms = append(g.sms, &sm{g: g, id: i, l1: l1})
	}
	return g, nil
}

// ID returns the device index.
func (g *GPU) ID() int { return g.id }

// Config returns the device configuration.
func (g *GPU) Config() Config { return g.cfg }

// L1Stats aggregates the per-SM L1 statistics.
func (g *GPU) L1Stats() (hits, misses int64) {
	for _, s := range g.sms {
		hits += s.l1.Stats.ReadHits.Value() + s.l1.Stats.WriteHits.Value()
		misses += s.l1.Stats.ReadMisses.Value() + s.l1.Stats.WriteMisses.Value()
	}
	return hits, misses
}

// L1HitRate returns the aggregate L1 hit rate.
func (g *GPU) L1HitRate() float64 {
	h, m := g.L1Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// L2HitRate returns the L2 hit rate.
func (g *GPU) L2HitRate() float64 { return g.l2.Stats.HitRate() }

// Busy reports whether any kernel is in flight.
func (g *GPU) Busy() bool {
	for _, c := range g.ctxs {
		if c.busy() {
			return true
		}
	}
	return false
}

// QueuedCTAs returns how many assigned CTAs have not started yet, across
// all in-flight kernels.
func (g *GPU) QueuedCTAs() int {
	n := 0
	for _, c := range g.ctxs {
		n += len(c.pending)
	}
	return n
}

// StealCTAs removes up to n unstarted CTAs from the back of the oldest
// context's queue and returns them (the dynamic two-level scheduler's CTA
// stealing, Section III-B).
func (g *GPU) StealCTAs(n int) []int {
	for _, c := range g.ctxs {
		if len(c.pending) == 0 {
			continue
		}
		if n > len(c.pending) {
			n = len(c.pending)
		}
		if n <= 0 {
			return nil
		}
		cut := len(c.pending) - n
		stolen := append([]int(nil), c.pending[cut:]...)
		c.pending = c.pending[:cut]
		g.accepted -= int64(len(stolen))
		return stolen
	}
	return nil
}

// Launch begins executing the given CTA indices of kernel on this GPU and
// calls onDone when every CTA has finished and all its memory traffic
// (including write-through stores) has drained. Multiple launches may be
// in flight concurrently; their CTAs space-share the SMs.
func (g *GPU) Launch(kernel Kernel, ctas []int, onDone func()) {
	g.accepted += int64(len(ctas))
	ctx := &launchCtx{kernel: kernel, pending: append([]int(nil), ctas...), onDone: onDone}
	if g.kprof != nil {
		ctx.krec = g.kprof.Device(kernel.Name(), g.id, int64(g.coreClk.Period()))
		ctx.krec.Launches++
		ctx.krec.LaunchPS += int64(g.cfg.LaunchLatency)
	}
	if len(ctx.pending) == 0 {
		if onDone != nil {
			g.eng.After(g.cfg.LaunchLatency, onDone)
		}
		return
	}
	g.ctxs = append(g.ctxs, ctx)
	g.eng.After(g.cfg.LaunchLatency, g.fillSMs)
}

// nextPending returns a context with unstarted CTAs, round-robin.
func (g *GPU) nextPending() *launchCtx {
	for i := 0; i < len(g.ctxs); i++ {
		c := g.ctxs[(g.next+i)%len(g.ctxs)]
		if len(c.pending) > 0 {
			g.next = (g.next + i + 1) % len(g.ctxs)
			return c
		}
	}
	return nil
}

func (g *GPU) fillSMs() {
	if g.failed {
		return
	}
	for {
		progressed := false
		for _, s := range g.sms {
			ctx := g.nextPending()
			if ctx == nil {
				g.reapContexts()
				return
			}
			if !s.fits(ctx.kernel) {
				continue
			}
			cta := ctx.pending[0]
			ctx.pending = ctx.pending[1:]
			s.startCTA(ctx, cta)
			progressed = true
		}
		if !progressed {
			g.reapContexts()
			return
		}
	}
}

// reapContexts drops completed contexts from the list.
func (g *GPU) reapContexts() {
	live := g.ctxs[:0]
	for _, c := range g.ctxs {
		if c.busy() || c.onDone != nil {
			live = append(live, c)
		}
	}
	g.ctxs = live
	if g.next >= len(g.ctxs) {
		g.next = 0
	}
}

func (g *GPU) ctaFinished(s *sm, cta *ctaState) {
	ctx := cta.ctx
	for i, id := range ctx.activeIDs {
		if id == cta.id {
			ctx.activeIDs[i] = ctx.activeIDs[len(ctx.activeIDs)-1]
			ctx.activeIDs = ctx.activeIDs[:len(ctx.activeIDs)-1]
			break
		}
	}
	ctx.activeCTAs--
	g.Stats.CTAs.Inc()
	g.traceOccupancy()
	g.fillSMs()
	g.maybeDone(ctx)
}

// Chunk is a unit of unfinished work reclaimed from a failed GPU: the
// kernel and the CTA indices that never completed on it.
type Chunk struct {
	Kernel Kernel
	CTAs   []int
}

// Kill marks the device failed (fail-stop). Resident warps halt at their
// next scheduled event, no new CTAs start, and outstanding memory traffic
// drains without further issue. The unfinished CTAs stay accounted to this
// GPU until Reap collects them.
func (g *GPU) Kill() { g.failed = true }

// Failed reports whether the device has been killed.
func (g *GPU) Failed() bool { return g.failed }

// Reap collects every unfinished CTA (queued or resident) from a killed
// GPU, removes them from this device's accepted ledger, and cancels the
// per-launch completion callbacks. The caller re-queues the returned
// chunks on surviving devices; CTA-conservation audits stay balanced
// because the accepted count drops by exactly the CTAs handed back.
func (g *GPU) Reap() []Chunk {
	var out []Chunk
	for _, c := range g.ctxs {
		ctas := append(append([]int(nil), c.pending...), c.activeIDs...)
		if len(ctas) > 0 {
			out = append(out, Chunk{Kernel: c.kernel, CTAs: ctas})
		}
		g.accepted -= int64(len(ctas))
		c.pending = nil
		c.activeCTAs = 0
		c.activeIDs = nil
		c.onDone = nil
	}
	g.traceOccupancy()
	return out
}

// Progress returns a monotone activity counter (instructions retired, CTAs
// completed, memory operations issued) used by watchdogs to detect a hung
// or dead device: a busy GPU whose Progress has not advanced is stuck.
func (g *GPU) Progress() int64 {
	return g.Stats.WarpInstrs.Value() + g.Stats.CTAs.Value() +
		g.Stats.Loads.Value() + g.Stats.Stores.Value() + g.Stats.Atomics.Value()
}

// Instrument attaches this GPU to a run's collectors; a nil one leaves
// that part of the GPU inert.
//
//   - Audit: the "gpu<id>" checker of CTA conservation. Every CTA the GPU
//     accepted (launches and steals in, steals out) is either executed,
//     queued, or resident on an SM — never duplicated or dropped.
//     Occupancy counters must stay non-negative.
//   - Trace: a "gpu<id>" track carrying the active-CTA occupancy counter.
//   - Prof: the compute-side profiler. Each launch resolves its (kernel,
//     GPU) record once, and the warp and memory hot paths accumulate into
//     it through a cached pointer.
func (g *GPU) Instrument(p obs.Probe) {
	name := fmt.Sprintf("gpu%d", g.id)
	g.trace = p.Trace.NewTrack(name)
	if p.Prof != nil {
		g.kprof = p.Prof.Kern
	}
	if p.Audit != nil {
		p.Audit.Register(name, func(report func(string)) {
			var queued, active int64
			for i, c := range g.ctxs {
				if c.activeCTAs < 0 {
					report(fmt.Sprintf("context %d has %d active CTAs", i, c.activeCTAs))
				}
				if c.memInFlight < 0 {
					report(fmt.Sprintf("context %d has %d memory ops in flight", i, c.memInFlight))
				}
				queued += int64(len(c.pending))
				active += int64(c.activeCTAs)
			}
			if got := g.Stats.CTAs.Value() + queued + active; got != g.accepted {
				report(fmt.Sprintf("CTA conservation: %d executed + %d queued + %d active = %d, want %d accepted",
					g.Stats.CTAs.Value(), queued, active, got, g.accepted))
			}
			for _, s := range g.sms {
				if s.residentCTAs < 0 || s.residentThreads < 0 || s.outstanding < 0 {
					report(fmt.Sprintf("SM %d occupancy negative (ctas=%d threads=%d outstanding=%d)",
						s.id, s.residentCTAs, s.residentThreads, s.outstanding))
				}
				if s.residentCTAs > g.cfg.MaxCTAsPerCore {
					report(fmt.Sprintf("SM %d holds %d CTAs, limit %d", s.id, s.residentCTAs, g.cfg.MaxCTAsPerCore))
				}
			}
		})
	}
}

// traceOccupancy samples the device's resident-CTA count onto the trace;
// a single nil check when tracing is off.
func (g *GPU) traceOccupancy() {
	if !g.trace.Enabled() {
		return
	}
	active := 0
	for _, c := range g.ctxs {
		active += c.activeCTAs
	}
	g.trace.Counter("active_ctas", g.eng.Now(), float64(active))
}

func (g *GPU) maybeDone(ctx *launchCtx) {
	if !ctx.busy() && ctx.onDone != nil {
		done := ctx.onDone
		ctx.onDone = nil
		done()
	}
}

// warpsPerCTA returns the warp count for a kernel's CTA shape.
func (g *GPU) warpsPerCTA(k Kernel) int {
	w := (k.ThreadsPerCTA() + g.cfg.WarpSize - 1) / g.cfg.WarpSize
	if w < 1 {
		w = 1
	}
	return w
}

// An SM's request below its L1 takes these steps, each a typed event on
// the request: l2Enter when it leaves the SM, l2Bank after the crossbar,
// l2Lookup once its L2 bank has served it, then either an L2 hit's return
// or the memory port, whose response crosses back (crossbarBack); last,
// requestDone at the SM. Atomics invalidate the L2 line and always go to
// memory.

// gpuOf returns the GPU of an SM's request.
func gpuOf(req *mem.Req) *GPU { return req.Owner.(*warpState).sm.g }

// l2Enter starts a request across the SM-to-L2 crossbar.
func l2Enter(a any) {
	g := gpuOf(a.(*mem.Req))
	g.eng.AfterEvent(g.cfg.XbarLatency, l2Bank, a)
}

// l2Bank queues a request on its L2 bank, which serves one access per
// L2ServiceCycle.
func l2Bank(a any) {
	req := a.(*mem.Req)
	g := gpuOf(req)
	bank := int(uint64(req.Addr)/uint64(g.cfg.L2.LineBytes)) % g.cfg.L2Banks
	t := g.eng.Now()
	if g.l2Banks[bank] > t {
		t = g.l2Banks[bank]
	}
	service := g.l2Clk.Cycles(int64(g.cfg.L2ServiceCycle))
	g.l2Banks[bank] = t + service
	g.eng.AtEvent(t+service, l2Lookup, req)
}

// l2Lookup runs a request through the write-through L2: a hit returns to
// the SM, a miss fill or write-through goes to the memory port.
func l2Lookup(a any) {
	req := a.(*mem.Req)
	g := gpuOf(req)
	if req.Atomic {
		g.l2.Invalidate(req.Addr)
		g.port.Access(req)
		return
	}
	res := g.l2.Access(req.Addr, req.Write)
	if res.HasWriteBack {
		// Only under a write-back L2 (the ablation configuration; Section
		// III-D mandates write-through for SKE). Eviction write-backs
		// drain asynchronously from the shared L2 and are not attributed
		// to a kernel context.
		wb := g.reqs.Get()
		wb.Addr = res.WriteBack
		wb.Write = true
		wb.Owner = g
		wb.Done = writeBackDone
		g.writeBacks++
		g.port.Access(wb)
	}
	if res.Hit && !res.Forward {
		// Absorbed by the L2: a read hit, or a write hit under the
		// write-back ablation policy.
		g.eng.AfterEvent(g.cfg.L2HitExtra+g.cfg.XbarLatency, requestDone, req)
		return
	}
	// Miss fill or write-through to memory.
	g.port.Access(req)
}

// crossbarBack returns a request the memory port finished across the
// crossbar to its SM.
func crossbarBack(req *mem.Req) {
	g := gpuOf(req)
	g.eng.AfterEvent(g.cfg.XbarLatency, requestDone, req)
}

// writeBackDone releases an L2 write-back the memory port acknowledged.
func writeBackDone(req *mem.Req) {
	g := req.Owner.(*GPU)
	g.writeBacks--
	g.reqs.Put(req)
}

// ReqsHeld returns the requests this GPU holds: accesses its SMs have in
// flight below their L1s plus L2 write-backs not yet acknowledged.
func (g *GPU) ReqsHeld() int64 {
	n := int64(g.writeBacks)
	for _, s := range g.sms {
		n += int64(s.outstanding)
	}
	return n
}

// L2CacheStats exposes the shared L2's statistics.
func (g *GPU) L2CacheStats() *cache.Stats { return &g.l2.Stats }
