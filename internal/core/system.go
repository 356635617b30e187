package core

import (
	"fmt"

	"memnet/internal/audit"
	"memnet/internal/coherence"
	"memnet/internal/cpu"
	"memnet/internal/gpu"
	"memnet/internal/hmc"
	"memnet/internal/mem"
	"memnet/internal/noc"
	"memnet/internal/obs"
	"memnet/internal/pcie"
	"memnet/internal/prof"
	"memnet/internal/sim"
	"memnet/internal/ske"
	"memnet/internal/workload"
)

// Coherence agents at the host memory controller.
const (
	agentCPU = 0
	agentDMA = 1
)

// System is one fully wired simulated machine.
type System struct {
	eng *sim.Engine
	cfg Config
	w   *workload.Workload

	net     *noc.Network
	terms   []int   // terminal per cluster: 0..G-1 GPUs, G CPU
	routers [][]int // [cluster][local] router IDs

	gpus []*gpu.GPU
	host *cpu.CPU
	rt   *ske.Runtime
	hmcs []*hmc.HMC

	space   *mem.Space
	binding workload.Binding

	fabric *pcie.Fabric
	ep     []int // PCIe endpoint per cluster owner

	dir *coherence.Directory

	// probe holds the run's collectors, each nil unless the config turns
	// it on (see instrument). Audit checks run at phase boundaries, where
	// the engine is between events and every conservation equation must
	// balance. hostTrack carries the phase spans; profile is the snapshot
	// assembled after the last event.
	probe     obs.Probe
	hostTrack obs.Track
	profile   *prof.Profile

	// prog is the resolved progress sink (nil when none); runLabel names
	// this run in its events as "<workload>/<arch>".
	prog     obs.ProgressFunc
	runLabel string

	// stop is the resolved cooperative stop signal (nil when none): the
	// phase loop polls it between events and unwinds with ErrStopped once
	// it trips. Passive while untripped, like the obs and prof layers.
	stop *sim.Stop

	// fatal records the first unrecoverable fault-injection outcome (work
	// lost with nowhere to re-queue it); the phase runner aborts on it.
	fatal error

	gpuLineFlits int // 128 B / 16 B
	cpuLineFlits int // 64 B / 16 B
}

// memTxn is a memory-network transaction: request to an HMC, response back.
type memTxn struct {
	loc       mem.Loc
	write     bool
	atomic    bool
	respFlits int
	replyTerm int
	pass      bool
	done      func()
}

// peerReq asks a remote endpoint to access its local memory on the
// requester's behalf (remote GPU memory in the PCIe baseline and CMN).
type peerReq struct {
	loc        mem.Loc
	write      bool
	atomic     bool
	owner      int // serving cluster
	respFlits  int
	originTerm int
	done       func()
}

type peerResp struct{ done func() }

// NewSystem builds the machine for cfg, allocating the workload's buffers.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := cfg.Custom
	if w == nil {
		var err error
		w, err = workload.New(cfg.Workload, cfg.Scale)
		if err != nil {
			return nil, err
		}
	}
	s := &System{
		eng:          sim.NewEngine(),
		cfg:          cfg,
		w:            w,
		gpuLineFlits: cfg.GPU.L1.LineBytes / cfg.Net.FlitBytes,
		cpuLineFlits: cfg.CPU.L1.LineBytes / cfg.Net.FlitBytes,
	}
	if err := s.buildNetwork(); err != nil {
		return nil, err
	}
	s.net.SetUGAL(cfg.UGAL)
	s.net.SetAdaptiveAll(cfg.Adaptive)

	// One HMC device per router.
	for r := 0; r < s.net.NumRouters(); r++ {
		h, err := hmc.New(s.eng, cfg.HMC)
		if err != nil {
			return nil, err
		}
		s.hmcs = append(s.hmcs, h)
	}
	s.net.RouterSink = s.routerSink
	for c := 0; c < cfg.clusters(); c++ {
		c := c
		s.net.Terminal(s.terms[c]).OnDeliver = func(pkt *noc.Packet) { s.deliver(c, pkt) }
	}

	// PCIe fabric for the architectures that keep it.
	if cfg.Arch.hasPCIe() {
		s.fabric = pcie.New(s.eng, cfg.PCIe)
		s.ep = make([]int, cfg.clusters())
		for g := 0; g < cfg.NumGPUs; g++ {
			s.ep[g] = s.fabric.AddEndpoint(fmt.Sprintf("gpu%d", g))
		}
		s.ep[cfg.cpuCluster()] = s.fabric.AddEndpoint("cpu")
	}

	// Devices.
	for g := 0; g < cfg.NumGPUs; g++ {
		dev, err := gpu.New(s.eng, g, cfg.GPU, &gpuPort{s: s, g: g})
		if err != nil {
			return nil, err
		}
		s.gpus = append(s.gpus, dev)
	}
	host, err := cpu.New(s.eng, cfg.CPU, &cpuPort{s: s})
	if err != nil {
		return nil, err
	}
	s.host = host
	exec := cfg.ExecGPUs
	if exec == 0 {
		exec = cfg.NumGPUs
	}
	skeCfg := cfg.SKE
	skeCfg.Policy = cfg.Sched
	rt, err := ske.New(s.eng, skeCfg, s.gpus[:exec])
	if err != nil {
		return nil, err
	}
	s.rt = rt

	s.dir = coherence.NewDirectory(2)

	// Memory space and buffer placement.
	mapping, err := mem.NewMapping(cfg.memConfig())
	if err != nil {
		return nil, err
	}
	s.space = mem.NewSpace(mapping)
	if err := s.allocBuffers(); err != nil {
		return nil, err
	}
	s.prog = cfg.Progress
	s.stop = cfg.Stop
	s.runLabel = w.Abbr + "/" + cfg.Arch.String()
	s.instrument()
	if err := s.scheduleFaults(); err != nil {
		return nil, err
	}
	return s, nil
}

// instrument builds the run's probe from the config and attaches every
// component to it: host, SKE, every GPU, every HMC, PCIe, the NoC, then
// the metrics-to-trace bridge. Trace track ids, metrics columns and
// checker order all follow this order, and the NoC's gauges and profiler
// need the finished topology, so it runs once the system is built. A new
// component implements Instrument(obs.Probe) and is attached here. With
// every collector off it returns before touching a component.
func (s *System) instrument() {
	var p obs.Probe
	if s.cfg.auditEnabled() {
		p.Audit = audit.New(func() int64 { return int64(s.eng.Now()) })
	}
	if s.cfg.TraceOut != "" {
		p.Trace = obs.NewTracer()
	}
	if s.cfg.TraceOut != "" || s.cfg.MetricsOut != "" {
		// The sampler runs whenever observability is on: with only a trace
		// requested, its windows still feed the trace's counter tracks.
		p.Metrics = obs.NewSampler(s.cfg.MetricsEpoch)
	}
	if s.cfg.Profile || s.cfg.ProfileOut != "" {
		p.Prof = prof.NewRun()
	}
	s.probe = p
	if p == (obs.Probe{}) {
		return
	}
	if p.Audit != nil {
		p.Audit.Register("sim", func(report func(string)) {
			if err := s.eng.AuditInvariants(); err != nil {
				report(err.Error())
			}
		})
	}
	s.hostTrack = p.Trace.NewTrack("host")
	s.rt.Instrument(p)
	for _, g := range s.gpus {
		g.Instrument(p)
	}
	for i, h := range s.hmcs {
		h.Instrument(p, fmt.Sprintf("hmc%d", i))
	}
	if s.fabric != nil {
		s.fabric.Instrument(p)
	}
	s.net.Instrument(p)
	if p.Audit != nil {
		// The system releases every delivered packet, so it can state the
		// strict form of the packet-ledger invariant the network itself
		// cannot (release discipline is the consumer's): a quiescent
		// network has no live packets at all.
		p.Audit.Register("noc-pool", func(report func(string)) {
			if s.net.Quiescent() {
				if live := s.net.LivePackets(); live != 0 {
					report(fmt.Sprintf("quiescent network still has %d unreleased packets", live))
				}
			}
		})
		if p.Prof != nil {
			// Every packet's stage decomposition must sum exactly to its
			// end-to-end latency.
			p.Audit.Register("prof", p.Prof.Net.Audit)
		}
	}
	// Last, so the bridge track sorts after the component tracks: mirror
	// every metrics window onto the trace as counter series.
	p.Metrics.AttachTracer(p.Trace)
}

// Probe returns the run's collectors; a nil field is a collector that is
// off.
func (s *System) Probe() obs.Probe { return s.probe }

// Profile returns the latency-attribution profile assembled after the
// run, or nil when profiling is off (or the run has not executed yet).
func (s *System) Profile() *prof.Profile { return s.profile }

// Engine exposes the event engine (examples and tests drive it directly).
func (s *System) Engine() *sim.Engine { return s.eng }

// Network exposes the memory network.
func (s *System) Network() *noc.Network { return s.net }

// Workload returns the bound workload.
func (s *System) Workload() *workload.Workload { return s.w }

// Binding returns the buffer binding.
func (s *System) Binding() workload.Binding { return s.binding }

// buildNetwork constructs the interconnect for the architecture.
func (s *System) buildNetwork() error {
	cfg := &s.cfg
	G, L := cfg.NumGPUs, cfg.HMCsPerGPU
	total := cfg.clusters()
	spec := noc.TopoSpec{
		Clusters:        total,
		LocalPerCluster: L,
		TermChannels:    2 * L,
		Multiplier:      cfg.TopoMultiplier,
		CPUCluster:      -1,
	}
	switch cfg.Arch {
	case PCIe, PCIeZC:
		spec.Kind = noc.TopoStar
	case GMN, GMNZC:
		spec.Kind = cfg.Topo
		spec.SlicedClusters = G // the CPU cluster stays a private star
	case UMN:
		spec.Kind = cfg.Topo
		spec.CPUCluster = cfg.cpuCluster()
		spec.Overlay = cfg.Overlay
	case CMN, CMNZC:
		return s.buildCMN()
	default:
		return fmt.Errorf("core: unhandled arch %v", cfg.Arch)
	}
	b, err := noc.BuildTopology(s.eng, cfg.Net, spec)
	if err != nil {
		return err
	}
	s.net = b.Net
	s.terms = b.Terms
	s.routers = b.Routers
	return nil
}

// cmnChansPerGPU is each GPU's channel count into the CPU memory network
// (replacing its PCIe interface in the CMN organization).
const cmnChansPerGPU = 2

// buildCMN wires the CPU-memory-network organization (Fig. 8a): every
// GPU keeps a private star to its local HMCs; the CPU's local HMCs are
// fully interconnected and the GPUs attach into that network with
// cmnChansPerGPU channels each.
func (s *System) buildCMN() error {
	cfg := &s.cfg
	G, L := cfg.NumGPUs, cfg.HMCsPerGPU
	n := noc.New(s.eng, cfg.Net)
	for c := 0; c < cfg.clusters(); c++ {
		row := make([]int, L)
		for l := 0; l < L; l++ {
			row[l] = n.AddRouter()
		}
		s.routers = append(s.routers, row)
	}
	for c := 0; c < cfg.clusters(); c++ {
		name := fmt.Sprintf("gpu%d", c)
		if c == cfg.cpuCluster() {
			name = "cpu"
		}
		t := n.AddTerminal(name)
		s.terms = append(s.terms, t)
		for l := 0; l < L; l++ {
			n.Attach(t, s.routers[c][l], 2)
		}
	}
	// Fully connect the CPU cluster's HMCs.
	cpuR := s.routers[cfg.cpuCluster()]
	for i := 0; i < L; i++ {
		for j := i + 1; j < L; j++ {
			n.Connect(cpuR[i], cpuR[j], noc.ChannelOpts{})
		}
	}
	// GPU attachments into the CMN, spread across the CPU's HMCs.
	for g := 0; g < G; g++ {
		for k := 0; k < cmnChansPerGPU; k++ {
			n.Attach(s.terms[g], cpuR[(g+k*2)%L], 1)
		}
	}
	if err := n.Finalize(); err != nil {
		return err
	}
	s.net = n
	return nil
}

// dataClusters returns the GPU clusters that hold device data.
func (s *System) dataClusters() []int {
	if len(s.cfg.DataClusters) > 0 {
		return s.cfg.DataClusters
	}
	out := make([]int, s.cfg.NumGPUs)
	for i := range out {
		out[i] = i
	}
	return out
}

// allocBuffers places the workload's buffers per Section III-C: 4 KB pages
// placed randomly across the target clusters, cache lines interleaved
// across each cluster's local HMCs.
func (s *System) allocBuffers() error {
	s.binding = make(workload.Binding)
	cpuC := s.cfg.cpuCluster()
	allClusters := make([]int, s.cfg.clusters())
	for i := range allClusters {
		allClusters[i] = i
	}
	pageBytes := uint64(mem.DefaultConfig().PageBytes)
	for i, spec := range s.w.Buffers() {
		var place mem.Placement
		seed := s.cfg.Seed + int64(i)*7919
		pages := (spec.Bytes + pageBytes - 1) / pageBytes
		switch {
		case s.cfg.Arch.zeroCopy() && (spec.HostInit || spec.Output):
			// Zero-copy: host data stays in CPU memory.
			place = mem.PlaceLocal{Cluster: cpuC}
		case s.cfg.OwnerCompute:
			// Owner-compute mapping: page order follows the CTA chunks.
			place = &mem.PlaceProportional{Clusters: s.dataClusters(), TotalPages: pages}
		case s.cfg.Arch == UMN:
			// Unified: all physical memory shared by CPU and GPUs.
			place = mem.NewPlaceRandom(allClusters, seed)
		default:
			place = mem.NewPlaceRandom(s.dataClusters(), seed)
		}
		buf, err := s.space.Alloc(spec.Name, spec.Bytes, place)
		if err != nil {
			return err
		}
		s.binding[spec.Name] = buf
	}
	return nil
}

// routerSink services request packets delivered to an HMC router.
func (s *System) routerSink(r int, pkt *noc.Packet) {
	t, ok := pkt.Payload.(*memTxn)
	if !ok {
		panic("core: router received packet without a memory transaction")
	}
	// The transaction carries everything the HMC and the response need; the
	// request packet itself is done and goes back to the free list.
	s.net.Release(pkt)
	req := &hmc.Request{
		Loc:    t.loc,
		Write:  t.write,
		Atomic: t.atomic,
		Done: func(*hmc.Request) {
			resp := s.net.NewResponse(r, t.replyTerm, t.respFlits)
			resp.PassThrough = t.pass
			resp.Payload = t
			s.net.Send(resp)
		},
	}
	if s.hmcs[r].Submit(req) {
		return
	}
	// The target vault failed: retry through the cube's other vaults (the
	// alternate interleave) so the line stays serviceable.
	orig := req.Loc.Vault
	for i := 1; i < s.cfg.HMC.Vaults; i++ {
		req.Loc.Vault = (orig + i) % s.cfg.HMC.Vaults
		if s.hmcs[r].Submit(req) {
			return
		}
	}
	s.fail(fmt.Errorf("core: hmc%d has no live vault left for vault-%d request", r, orig))
}

// deliver handles packets arriving at cluster c's terminal. Every arriving
// packet is released here once its payload is extracted: the payload object
// carries the continuation, so the packet itself never outlives delivery.
func (s *System) deliver(c int, pkt *noc.Packet) {
	payload := pkt.Payload
	s.net.Release(pkt)
	switch p := payload.(type) {
	case *memTxn:
		if p.done != nil { // fire-and-forget write-backs carry no waiter
			p.done()
		}
	case *peerReq:
		// Serve the access from this endpoint's local memory, then send
		// the data (or ack) back over the same network.
		s.netAccess(p.owner, p.loc, p.write, p.atomic, s.gpuLineFlits, false, func() {
			resp := s.net.NewPacket()
			resp.Class = noc.ClassResponse
			resp.SrcTerm = s.terms[p.owner]
			resp.DstTerm = p.originTerm
			resp.Size = p.respFlits
			resp.Payload = &peerResp{done: p.done}
			s.net.Send(resp)
		})
	case *peerResp:
		p.done()
	default:
		panic("core: terminal received unknown payload")
	}
}

// netAccess issues a memory-network request from cluster src's terminal to
// the HMC holding loc and calls done when the response returns.
func (s *System) netAccess(src int, loc mem.Loc, write, atomic bool, lineFlits int, pass bool, done func()) {
	reqFlits := 1
	respFlits := 1 + lineFlits
	if write {
		reqFlits = 1 + lineFlits
		respFlits = 1
	}
	if atomic {
		reqFlits = 2 // address + operand
		respFlits = 2
	}
	r := s.routers[loc.Cluster][loc.Local]
	pkt := s.net.NewRequest(s.terms[src], r, reqFlits)
	pkt.PassThrough = pass
	pkt.Payload = &memTxn{
		loc: loc, write: write, atomic: atomic,
		respFlits: respFlits, replyTerm: s.terms[src], pass: pass, done: done,
	}
	s.net.Send(pkt)
}

// peerOverNet routes a remote access through the owning endpoint over the
// memory network (CMN remote-GPU accesses: the request crosses the CPU
// memory network to the remote GPU, which accesses its own memory).
func (s *System) peerOverNet(src, owner int, loc mem.Loc, write, atomic bool, done func()) {
	reqFlits := 1
	respFlits := 1 + s.gpuLineFlits
	if write {
		reqFlits = 1 + s.gpuLineFlits
		respFlits = 1
	}
	pkt := s.net.NewPacket()
	pkt.Class = noc.ClassRequest
	pkt.SrcTerm = s.terms[src]
	pkt.DstTerm = s.terms[owner]
	pkt.Size = reqFlits
	pkt.Payload = &peerReq{
		loc: loc, write: write, atomic: atomic, owner: owner,
		respFlits: respFlits, originTerm: s.terms[src], done: done,
	}
	s.net.Send(pkt)
}

// peerOverPCIe routes a remote access through the owning endpoint over the
// PCIe fabric (the conventional baseline's UVA peer access, Fig. 9a, and
// zero-copy host accesses).
func (s *System) peerOverPCIe(src, owner int, loc mem.Loc, write, atomic bool, done func()) {
	reqBytes := int64(32)
	respBytes := int64(32 + s.cfg.GPU.L1.LineBytes)
	if write {
		reqBytes = int64(32 + s.cfg.GPU.L1.LineBytes)
		respBytes = 16
	}
	s.fabric.RoundTrip(s.ep[src], s.ep[owner], reqBytes, respBytes, func(fin func()) {
		s.netAccess(owner, loc, write, atomic, s.gpuLineFlits, false, fin)
	}, done)
}

// directReach reports whether cluster src's terminal can reach cluster c's
// HMCs directly through the memory network.
func (s *System) directReach(src, c int) bool {
	if src == c {
		return true
	}
	cpuC := s.cfg.cpuCluster()
	switch s.cfg.Arch {
	case UMN:
		return true
	case GMN, GMNZC:
		return src < s.cfg.NumGPUs && c < s.cfg.NumGPUs
	case CMN, CMNZC:
		// GPUs and the CPU are attached to the CPU cluster's network.
		return c == cpuC
	default:
		return false
	}
}

// gpuPort is a GPU's below-L2 memory interface.
type gpuPort struct {
	s *System
	g int
}

// Access implements gpu.MemPort.
func (p *gpuPort) Access(va mem.Addr, write, atomic bool, done func()) {
	s := p.s
	loc := s.space.LocOf(va)
	c := loc.Cluster
	switch {
	case s.directReach(p.g, c):
		pass := false
		s.netAccess(p.g, loc, write, atomic, s.gpuLineFlits, pass, done)
	case s.cfg.Arch.hasPCIe():
		s.peerOverPCIe(p.g, c, loc, write, atomic, done)
	default:
		s.peerOverNet(p.g, c, loc, write, atomic, done)
	}
}

// cpuPort is the host's below-L2 memory interface.
type cpuPort struct {
	s *System
}

// Access implements cpu.Port.
func (p *cpuPort) Access(va mem.Addr, write bool, done func()) {
	s := p.s
	loc := s.space.LocOf(va)
	cpuC := s.cfg.cpuCluster()
	if !s.directReach(cpuC, loc.Cluster) {
		// Outside UMN, host computation works on the host's own copy of
		// the data (the copy the explicit memcpy transfers from): shadow
		// the location into the CPU's cluster.
		loc.Cluster = cpuC
	}
	// Track host-side coherence at the directory (Table I's MOESI
	// directory protocol; the DMA engine is the other agent).
	line := va &^ mem.Addr(s.cfg.CPU.L1.LineBytes-1)
	if write {
		s.dir.Write(agentCPU, line)
	} else {
		s.dir.Read(agentCPU, line)
	}
	pass := s.cfg.Overlay && s.cfg.Arch == UMN
	s.netAccess(cpuC, loc, write, false, s.cpuLineFlits, pass, done)
}
