package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"memnet/internal/noc"
	"memnet/internal/sim"
)

// nocLoad is the offered request load of every load point, in flits per
// terminal per cycle: past every topology's saturation point, as in the
// degradation experiment.
const nocLoad = 1.0

// nocFailSeed selects the failed link pairs (nested as k grows).
const nocFailSeed = 42

// nocPoint is one load point of the link-failure degradation sweep.
type nocPoint struct {
	topo    string
	kind    noc.TopoKind
	pattern noc.TrafficPattern
	failed  int // survivable link pairs failed before traffic starts
}

func (p nocPoint) key() string { return fmt.Sprintf("noc/%s/%d", p.topo, p.failed) }

func (p nocPoint) spec() noc.TopoSpec {
	return noc.TopoSpec{Kind: p.kind, Clusters: 4, LocalPerCluster: 4, TermChannels: 8, CPUCluster: -1}
}

// nocPoints is the degradation sweep's 15 points: the star (cluster-local
// traffic only, as remote accesses go over PCIe there), sFBFLY and dFBFLY,
// each with 0–4 failed link pairs. tiny keeps two points.
func nocPoints(tiny bool) []nocPoint {
	topos := []nocPoint{
		{topo: "star", kind: noc.TopoStar, pattern: noc.LocalUniform},
		{topo: "sFBFLY", kind: noc.TopoSFBFLY, pattern: noc.UniformRandom},
		{topo: "dFBFLY", kind: noc.TopoDFBFLY, pattern: noc.UniformRandom},
	}
	var pts []nocPoint
	for _, t := range topos {
		for k := 0; k <= 4; k++ {
			t.failed = k
			pts = append(pts, t)
		}
	}
	if tiny {
		return []nocPoint{pts[0], pts[6]}
	}
	return pts
}

// buildPoint is a load point's set-up: the topology, routes and failed
// links.
func buildPoint(p nocPoint) (*sim.Engine, *noc.Built, error) {
	eng := sim.NewEngine()
	b, err := noc.BuildTopology(eng, noc.DefaultConfig(), p.spec())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p.key(), err)
	}
	if p.failed > 0 {
		b.Net.FailSurvivableChannels(nocFailSeed, p.failed)
	}
	return eng, b, nil
}

// nocTotals accumulates the load points' network counters.
type nocTotals struct {
	points         int
	runS           float64
	flits, cycles  int64
	routerVisits   float64
	busy, capacity int64
	rt             float64 // Σ delivered response flits/terminal/cycle
	simPS          float64
}

// runNoC drives the degradation sweep's load points one after another for
// as many whole passes as fit in o.seconds (at least one).
func runNoC(o options, tr *tracer) (*outcome, error) {
	pts := shuffled(nocPoints(o.tiny), o.seed)
	out := newOutcome()
	err := repeatSetup(out, tr, "noc.BuildTopology ×"+fmt.Sprint(len(pts)), func() error {
		for _, p := range pts {
			if _, _, err := buildPoint(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tot nocTotals
	win := openWindow()
	for {
		passStart := time.Now()
		for _, p := range pts {
			runLoadPoint(out, tr, &tot, p)
		}
		out.passes++
		if o.seconds-time.Since(win.start) < time.Since(passStart) {
			break
		}
	}
	win.close(out)
	tot.report(out)
	return out, nil
}

func runLoadPoint(out *outcome, tr *tracer, tot *nocTotals, p nocPoint) {
	out.attempted++
	job := tr.begin(kindJob, p.key(), 0)
	defer tr.end(job)
	t0 := time.Now()
	sp := tr.begin(kindSetup, spanBuildTopology, job)
	eng, b, err := buildPoint(p)
	tr.end(sp)
	if err != nil {
		out.fail("%v", err)
		return
	}
	t1 := time.Now()
	sp = tr.begin(kindRun, spanTraffic, job)
	lp := drive(eng, b, p)
	tr.end(sp)
	t2 := time.Now()
	out.lat = append(out.lat, jobLat{ms: float64(t2.Sub(t0)) / 1e6, cold: true})

	n := b.Net
	data, err := json.Marshal(nocDigest{lp, n.FlitsRetired(), n.Cycle()})
	if err != nil {
		out.fail("%s: encode result: %v", p.key(), err)
		return
	}
	checkGolden(out, p.key(), data)

	busy, capacity := n.AllChannelBusy()
	tot.points++
	tot.runS += t2.Sub(t1).Seconds()
	tot.flits += n.FlitsRetired()
	tot.cycles += n.Cycle()
	tot.routerVisits += float64(n.Cycle()) * float64(n.NumRouters())
	tot.busy += busy
	tot.capacity += capacity
	tot.rt += lp.RTThroughput
	tot.simPS += float64(n.Cycle()) * float64(n.Clock().Period())
}

// nocDigest is what a load point's golden digest covers.
type nocDigest struct {
	Point        noc.LoadPoint
	FlitsRetired int64
	Cycles       int64
}

func (t *nocTotals) report(out *outcome) {
	if t.points == 0 || t.runS == 0 {
		return
	}
	passes := float64(out.passes)
	l := out.layer
	l["sim_us_per_s"] = t.simPS / 1e6 / t.runS
	l["flits_per_s"] = float64(t.flits) / t.runS
	l["sim.simulated_us"] = t.simPS / 1e6 / passes
	l["noc.flits_retired"] = float64(t.flits) / passes
	l["noc.cycles_stepped"] = float64(t.cycles) / passes
	if t.flits > 0 {
		l["noc.router_visits_per_flit"] = t.routerVisits / float64(t.flits)
	}
	if t.capacity > 0 {
		l["noc.channel_util"] = float64(t.busy) / float64(t.capacity)
	}
	l["noc.rt_throughput"] = t.rt / float64(t.points)
}

// drive runs open-loop request/response traffic through a built network
// exactly as noc.RunSynthetic does for the degradation experiment — same
// seeds, same event order, so the load point is identical — but through
// the public send/deliver API, so set-up and traffic are timed apart and
// the network's counters stay readable afterwards.
func drive(eng *sim.Engine, b *noc.Built, p nocPoint) noc.LoadPoint {
	syn := noc.DefaultSyntheticConfig()
	n := b.Net
	rng := rand.New(rand.NewSource(syn.Seed))

	var lat, hops float64
	var pkts, accepted, delivered int64
	measuring := false
	n.RouterSink = func(r int, pkt *noc.Packet) {
		resp := n.NewResponse(r, pkt.SrcTerm, syn.RespFlits)
		resp.Payload = pkt
		n.Send(resp)
		if measuring {
			accepted += int64(pkt.Size)
		}
	}
	period := n.Clock().Period()
	for i := 0; i < n.NumTerminals(); i++ {
		n.Terminal(i).OnDeliver = func(resp *noc.Packet) {
			req := resp.Payload.(*noc.Packet)
			if measuring {
				delivered += int64(resp.Size)
				pkts++
				lat += float64(resp.DeliveredAt-req.CreatedAt) / float64(period)
				hops += float64(req.Hops + resp.Hops)
			}
			n.Release(req)
			n.Release(resp)
		}
	}
	spec := b.Spec
	hot := rng.Intn(n.NumRouters())
	dest := func(src int) int {
		switch p.pattern {
		case noc.HotSpot:
			if rng.Intn(2) == 0 {
				return hot
			}
			return rng.Intn(n.NumRouters())
		case noc.LocalUniform:
			return b.RouterID(src%spec.Clusters, rng.Intn(spec.LocalPerCluster))
		default:
			return rng.Intn(n.NumRouters())
		}
	}
	total := syn.WarmupCyc + syn.MeasureCyc
	inj := &injector{n: n, eng: eng, terms: b.Terms, dest: dest, rng: rng,
		period: period, perCycle: nocLoad / float64(syn.ReqFlits), reqFlits: syn.ReqFlits, total: total}
	for ti := range b.Terms {
		eng.AtEvent(sim.Time(ti%7), injectStep, &termInjector{inj: inj, term: ti})
	}
	eng.At(sim.Time(syn.WarmupCyc)*period, func() { measuring = true })
	eng.At(sim.Time(total)*period, func() { measuring = false })
	eng.RunUntil(sim.Time(total+syn.DrainCycMax) * period)

	lp := noc.LoadPoint{InjectionRate: nocLoad}
	if pkts > 0 {
		lp.AvgLatency = lat / float64(pkts)
		lp.AvgHops = hops / float64(pkts)
	}
	lp.Throughput = float64(accepted) / float64(syn.MeasureCyc) / float64(n.NumTerminals())
	lp.RTThroughput = float64(delivered) / float64(syn.MeasureCyc) / float64(n.NumTerminals())
	return lp
}

// injector is the Bernoulli request source shared by every terminal; a
// termInjector is one terminal's self-rescheduling event.
type injector struct {
	n        *noc.Network
	eng      *sim.Engine
	terms    []int
	dest     func(int) int
	rng      *rand.Rand
	period   sim.Time
	perCycle float64
	reqFlits int
	total    int64
}

type termInjector struct {
	inj   *injector
	term  int
	cycle int64
}

func injectStep(a any) {
	ti := a.(*termInjector)
	s := ti.inj
	if ti.cycle >= s.total {
		return
	}
	if s.rng.Float64() < s.perCycle {
		s.n.Send(s.n.NewRequest(s.terms[ti.term], s.dest(ti.term), s.reqFlits))
	}
	ti.cycle++
	s.eng.AfterEvent(s.period, injectStep, ti)
}
