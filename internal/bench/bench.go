// Package bench defines the canonical performance benchmarks tracked
// across PRs in the BENCH_*.json trajectory. The same benchmark bodies are
// run two ways: wrapped as ordinary Go benchmarks by bench_test.go files,
// and executed standalone by cmd/bench (via testing.Benchmark) to emit the
// committed JSON snapshots.
//
// The set deliberately spans the stack's altitudes: raw event-engine
// throughput (EngineEvents, TypedEvents) and a clocked component's edge
// (TickerEvents), the NoC flit hot loop in isolation (FlitHop), under
// saturation (SaturatedNoC) and near idle (LowLoadNoC), one cache
// (CacheAccess), one HMC's vaults and DRAM banks (HMCAccess), one system
// build (NewSystem) and one built-and-run design point pair (Fig14Point),
// whole experiment sweeps
// (Fig07/Fig12/Fig16, SweepSequential/SweepParallel), and the serving
// stack's request path (ServeWarmCache) so a regression anywhere in the
// pipeline moves at least one curve.
package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"memnet/internal/cache"
	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/gpu"
	"memnet/internal/hmc"
	"memnet/internal/mem"
	"memnet/internal/noc"
	"memnet/internal/par"
	"memnet/internal/serve"
	"memnet/internal/sim"
	"memnet/internal/telemetry"
)

// Fn is one named benchmark.
type Fn struct {
	Name string
	F    func(*testing.B)
}

// Short returns the quick benchmark set the CI bench job runs: the
// micro-benchmarks plus the cheapest figure sweep.
func Short() []Fn {
	return []Fn{
		{"EngineEvents", EngineEvents},
		{"TypedEvents", TypedEvents},
		{"TickerEvents", TickerEvents},
		{"FlitHop", FlitHop},
		{"SaturatedNoC", SaturatedNoC},
		{"LowLoadNoC", LowLoadNoC},
		{"CacheAccess", CacheAccess},
		{"HMCAccess", HMCAccess},
		{"NewSystem", NewSystem},
		{"Fig14Point", Fig14Point},
		{"Fig12", Fig12},
	}
}

// Full returns the canonical benchmark set emitted into BENCH_*.json.
func Full() []Fn {
	return append(Short(),
		Fn{"Fig07", Fig07},
		Fn{"Fig16", Fig16},
		Fn{"SweepSequential", SweepSequential},
		Fn{"SweepParallel", SweepParallel},
		Fn{"ServeWarmCache", ServeWarmCache},
	)
}

// lcg is a tiny deterministic pseudorandom stream for benchmark schedules.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

func (r *lcg) float64() float64 {
	return float64(r.next()>>11) / (1 << 20)
}

// benchSpread mimics the simulator's scheduling profile: most events land
// within a few hundred cycles of now, with an occasional long timer.
func benchSpread(r *lcg) sim.Time {
	d := sim.Time(r.next()%4000) + 1
	if r.next()%64 == 0 {
		d += 1_000_000
	}
	return d
}

// EngineEvents measures the engine's closure-scheduling hot path — After +
// Step at a steady queue depth of 1024 — in ns/event.
func EngineEvents(b *testing.B) {
	e := sim.NewEngine()
	r := lcg(1)
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.After(benchSpread(&r), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(benchSpread(&r), nop)
		e.Step()
	}
}

// TypedEvents measures the closure-free fast path — AfterEvent + Step at
// the same steady depth — the variant the per-cycle callers use.
func TypedEvents(b *testing.B) {
	e := sim.NewEngine()
	r := lcg(1)
	nop := func(any) {}
	for i := 0; i < 1024; i++ {
		e.AfterEvent(benchSpread(&r), nop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterEvent(benchSpread(&r), nop, nil)
		e.Step()
	}
}

// tickerHeapDepth is the number of other events pending beside the
// ticker in TickerEvents: about the engine's queue depth on a Fig. 14
// design point.
const tickerHeapDepth = 800

// TickerEvents measures one clock edge of a ticker that works every
// cycle, as the NoC's does under traffic, while tickerHeapDepth other
// events stay pending beyond the run, in ns/event. EngineEvents and
// TypedEvents schedule no ticker.
func TickerEvents(b *testing.B) {
	e := sim.NewEngine()
	r := lcg(1)
	nop := func(any) {}
	for i := 0; i < tickerHeapDepth; i++ {
		e.AtEvent(sim.Infinity/2+benchSpread(&r), nop, nil)
	}
	tk := sim.NewTicker(e, sim.NewClock(800), func() bool { return true })
	tk.Wake()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// flitHopBatch is the number of packets pushed per FlitHop iteration so the
// two-router chain stays busy instead of measuring wake/sleep latency.
const flitHopBatch = 256

// FlitHop measures the per-flit cost of the router/channel pipeline on a
// minimal two-router chain: one op is a batch of 4-flit request packets
// injected back to back and drained to quiescence. It reports flits/sec
// through the chain.
func FlitHop(b *testing.B) {
	eng := sim.NewEngine()
	n := noc.New(eng, noc.DefaultConfig())
	r0 := n.AddRouter()
	r1 := n.AddRouter()
	n.Connect(r0, r1, noc.ChannelOpts{})
	t := n.AddTerminal("t0")
	n.Attach(t, r0, 1)
	n.RouterSink = func(r int, pkt *noc.Packet) { n.Release(pkt) }
	if err := n.Finalize(); err != nil {
		b.Fatal(err)
	}
	const size = 4
	busy := func() bool { return !n.Quiescent() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < flitHopBatch; k++ {
			n.Send(n.NewRequest(t, r1, size))
		}
		eng.RunWhile(busy)
	}
	b.StopTimer()
	flits := float64(n.FlitsRetired())
	b.ReportMetric(flits/b.Elapsed().Seconds(), "flits/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/flits, "ns/flit")
}

// saturatedSpec is the paper's 4GPU+CPU sliced flattened butterfly.
func saturatedSpec() noc.TopoSpec {
	return noc.TopoSpec{
		Kind:            noc.TopoSFBFLY,
		Clusters:        5,
		LocalPerCluster: 4,
		TermChannels:    8,
		CPUCluster:      -1,
	}
}

// SaturatedNoC runs open-loop request/response traffic on the sFBFLY
// topology well past saturation (0.7 flits/terminal/cycle offered) for
// 2000 network cycles plus drain — the steady-state regime the whole
// simulation spends its time in. One op is a full run; it reports
// flits/sec retired, the headline trajectory metric.
func SaturatedNoC(b *testing.B) { openLoopNoC(b, 0.7, 2000) }

// LowLoadNoC runs the same traffic at 0.03 flits/terminal/cycle offered,
// close to the channel utilisation of the Fig. 14 sweep, where most
// routers, channels and terminals hold no work on a given cycle. The run
// is 10000 cycles so traffic, not topology construction, dominates an op.
// Its ns/flit is the cost the NoC charges an almost idle network.
func LowLoadNoC(b *testing.B) { openLoopNoC(b, 0.03, 10000) }

// openLoopNoC times full runSaturated runs at the given offered rate and
// length, reporting flits/sec and ns per flit retired.
func openLoopNoC(b *testing.B, rate float64, cycles int64) {
	var flits int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := runSaturated(b, rate, cycles)
		flits += n.FlitsRetired()
	}
	b.StopTimer()
	b.ReportMetric(float64(flits)/b.Elapsed().Seconds(), "flits/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(flits), "ns/flit")
}

// runSaturated builds a fresh sFBFLY network and pumps Bernoulli request
// traffic at `rate` flits/terminal/cycle for `cycles` cycles, each request
// answered by a 9-flit response, then drains. It returns the network so
// callers can read the flit ledger.
func runSaturated(b *testing.B, rate float64, cycles int64) *noc.Network {
	eng := sim.NewEngine()
	bt, err := noc.BuildTopology(eng, noc.DefaultConfig(), saturatedSpec())
	if err != nil {
		b.Fatal(err)
	}
	n := bt.Net
	n.RouterSink = func(r int, pkt *noc.Packet) {
		src := pkt.SrcTerm
		n.Release(pkt)
		n.Send(n.NewResponse(r, src, 9))
	}
	for i := 0; i < n.NumTerminals(); i++ {
		n.Terminal(i).OnDeliver = func(resp *noc.Packet) { n.Release(resp) }
	}
	period := n.Clock().Period()
	rng := lcg(12345)
	routers := n.NumRouters()
	inj := &saturatedInjector{
		n: n, eng: eng, bt: bt, rng: &rng,
		period: period, p: rate, routers: routers,
		stop: sim.Time(cycles) * period,
	}
	for ti := 0; ti < n.NumTerminals(); ti++ {
		eng.AtEvent(sim.Time(ti%7), injectorStep, &terminalInjector{inj: inj, term: ti})
	}
	eng.RunUntil(sim.Time(cycles+100_000) * period)
	return n
}

// saturatedInjector holds the shared state of the per-terminal Bernoulli
// injection processes.
type saturatedInjector struct {
	n       *noc.Network
	eng     *sim.Engine
	bt      *noc.Built
	rng     *lcg
	period  sim.Time
	p       float64
	routers int
	stop    sim.Time
}

// terminalInjector is one terminal's injection process; it reschedules
// itself through the typed-event fast path so injection adds no
// allocations to the measured loop.
type terminalInjector struct {
	inj  *saturatedInjector
	term int
}

func injectorStep(a any) {
	ti := a.(*terminalInjector)
	s := ti.inj
	if s.eng.Now() >= s.stop {
		return
	}
	if s.rng.float64() < s.p {
		dst := int(s.rng.next() % uint64(s.routers))
		s.n.Send(s.n.NewRequest(s.bt.Terms[ti.term], dst, 1))
	}
	s.eng.AfterEvent(s.period, injectorStep, ti)
}

// cacheAccessBatch is the number of accesses per CacheAccess op, so that
// even a short -benchtime times thousands of accesses.
const cacheAccessBatch = 4096

// CacheAccess measures one Table I GPU L2 (2 MB, 16-way, 128 B lines,
// write-through) on a seeded stream of reads and one-in-four writes over a
// 4 MB footprint, in ns per access. Filling every way of one set before
// the timer starts builds all of the cache's way planes, so the steady
// state allocates nothing.
func CacheAccess(b *testing.B) {
	cfg := gpu.DefaultConfig().L2
	c, err := cache.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	setStride := cfg.SizeBytes / cfg.Ways // bytes between lines of one set
	for w := 0; w < cfg.Ways; w++ {
		c.Access(mem.Addr(w*setStride), false)
	}
	r := lcg(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < cacheAccessBatch; k++ {
			v := r.next()
			c.Access(mem.Addr(v%(4<<20)), v>>22&3 == 0)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cacheAccessBatch), "ns/access")
}

// hmcAccessBatch is the number of accesses per HMCAccess op, and
// hmcAccessWindow the accesses kept in flight across the cube's vaults.
const (
	hmcAccessBatch  = 4096
	hmcAccessWindow = 64
)

// hmcStream is HMCAccess's closed-loop request source: every completion
// resubmits its request to a fresh seeded vault, bank and row until the
// op's batch has been issued.
type hmcStream struct {
	h      *hmc.HMC
	cfg    hmc.Config
	r      lcg
	issued int
}

// submit aims req at the next seeded location, one write in four.
func (st *hmcStream) submit(req *mem.Req) {
	v := st.r.next()
	req.Loc.Vault = int(v % uint64(st.cfg.Vaults))
	req.Loc.Bank = int(v >> 4 % uint64(st.cfg.BanksPerVault))
	req.Loc.Row = int64(v >> 8 % 64)
	req.Write = v>>14&3 == 0
	st.issued++
	st.h.Submit(req)
}

// HMCAccess measures one Table I HMC (16 vaults of 16 banks, FR-FCFS) on
// a seeded closed-loop stream of reads and one-in-four writes spread over
// every vault and bank, hmcAccessWindow in flight, in ns per access. One
// op issues hmcAccessBatch accesses and drains the cube; its allocs/op is
// what the vault and bank path allocates per access.
func HMCAccess(b *testing.B) {
	eng := sim.NewEngine()
	cfg := hmc.DefaultConfig()
	h, err := hmc.New(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// A vault's first request builds its banks; make it before the timer
	// starts, so the steady state allocates nothing.
	h.Respond = func(*mem.Req) {}
	var warm mem.Req
	for v := 0; v < cfg.Vaults; v++ {
		warm.Loc.Vault = v
		h.Submit(&warm)
		eng.Run()
	}
	st := &hmcStream{h: h, cfg: cfg, r: lcg(11)}
	h.Respond = func(req *mem.Req) {
		if st.issued < hmcAccessBatch {
			st.submit(req)
		}
	}
	reqs := make([]mem.Req, hmcAccessWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.issued = 0
		for k := range reqs {
			st.submit(&reqs[k])
		}
		eng.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hmcAccessBatch), "ns/access")
}

// NewSystem builds one Fig. 14 design point, UMN running CG.S at scale
// 0.02. Its B/op is the state a system allocates before it runs: the
// network, the devices, the workload's buffers and each HMC's vault array.
// A cache adds one small object until its first fill builds a way plane,
// and a vault's DRAM banks wait for its first request. CI fails the build
// when it exceeds its byte budget.
func NewSystem(b *testing.B) {
	cfg := core.DefaultConfig(core.UMN, "CG.S")
	cfg.Scale = 0.02
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSystem(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig14Point builds and runs two Fig. 14 design points at scale 0.02:
// UMN running CG.S, which reaches every layer including the host's
// below-L2 path, and PCIe running BP, whose remote accesses take PCIe
// peer round trips. Its bytes/op and allocs/op are what running design
// points costs the collector; both are deterministic, so CI gates them.
func Fig14Point(b *testing.B) {
	umn := core.DefaultConfig(core.UMN, "CG.S")
	umn.Scale = 0.02
	pcie := core.DefaultConfig(core.PCIe, "BP")
	pcie.Scale = 0.02
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []core.Config{umn, pcie} {
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchScale keeps the figure sweeps affordable inside one bench run.
const benchScale = 0.1

// Fig07 runs the remote-memory-access experiment (vectorAdd with data
// spread over 1/2/4 GPU memories, PCIe vs GMN) end to end.
func Fig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Env{}).Fig7(benchScale * 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig12 computes the channel-count comparison (topology construction and
// route finalization only — no traffic), a build-path benchmark.
func Fig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

// fig16Workloads is the subset benchmarked for the topology comparison.
var fig16Workloads = []string{"BP", "KMN"}

// Fig16 runs the sliced-topology comparison for two workloads.
func Fig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Env{}).Fig16(benchScale, fig16Workloads); err != nil {
			b.Fatal(err)
		}
	}
}

// SweepSequential runs the Fig. 15 routing study with the worker pool
// pinned to one worker — full-sweep wall time, the trajectory's
// end-to-end metric.
func SweepSequential(b *testing.B) {
	benchSweep(b, 1)
}

// SweepParallel is the same study fanned out across the CPUs.
func SweepParallel(b *testing.B) {
	benchSweep(b, runtime.NumCPU())
}

func benchSweep(b *testing.B, width int) {
	prev := par.SetParallelism(width)
	defer par.SetParallelism(prev)
	for i := 0; i < b.N; i++ {
		if _, err := (exp.Env{}).Fig15(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// serveWarmSpec is the job ServeWarmCache replays; table2 is parameterless
// and cheap, so the first request warms the cache almost instantly and
// every subsequent one measures pure serving overhead.
const serveWarmSpec = `{"experiment":"table2"}`

// ServeWarmCache measures the serving stack's request path end to end —
// HTTP decode, spec canonicalization, SHA-256 content addressing, cache
// lookup, response write — with the result already cached, in jobs/sec.
// This is the dedupe fast path every repeated submission takes, with the
// full telemetry registry attached (the instrumented, not the disabled,
// cost).
func ServeWarmCache(b *testing.B) {
	srv, err := serve.New(serve.Config{Metrics: telemetry.NewRegistry(), Logger: telemetry.DiscardLogger()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	run := func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(serveWarmSpec))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/run: %s", resp.Status)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	run() // warm the cache: one real simulation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
