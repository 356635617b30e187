package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/noc"
	"memnet/internal/sim"
)

// golden holds every job's expected output, as computed by updateGolden:
// a digest of the output for load points and served results, and the
// simulated statistics for design points. A mismatch fails the run.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Digests map[string]string     `json:"digests"`
	Fig14   map[string]pointStats `json:"fig14"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		// Every check then fails with "no golden".
		fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
	}
	return g
}()

// digest is a short content hash; 64 bits are plenty to catch a change.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func checkGolden(out *outcome, key string, data []byte) {
	checkGoldenDigest(out, key, digest(data))
}

func checkGoldenDigest(out *outcome, key, got string) {
	want, ok := golden.Digests[key]
	switch {
	case !ok:
		out.fail("%s: no golden digest", key)
	case got != want:
		out.fail("%s: output digest %s, golden %s", key, got, want)
	}
}

// pointStats are the simulated statistics a design point is checked on.
// Times are in simulated ps.
type pointStats struct {
	H2D, Kernel, Host, D2H, Total                         sim.Time
	PktLatency, P99PktLatency, GPUMemLat, HostMemLat      sim.Time
	HostStall, CTAsStolen                                 int64
	AvgHops, L1HitRate, L2HitRate, RowHitRate, NetEnergyJ float64
}

func statsOf(r *core.Result) pointStats {
	return pointStats{
		H2D: r.H2D, Kernel: r.Kernel, Host: r.Host, D2H: r.D2H, Total: r.Total,
		PktLatency: r.AvgPktLatency, P99PktLatency: r.P99PktLatency,
		GPUMemLat: r.GPUMemLatency, HostMemLat: r.HostMemLat,
		HostStall: r.HostStallPS, CTAsStolen: r.CTAsStolen,
		AvgHops: r.AvgHops, L1HitRate: r.L1HitRate, L2HitRate: r.L2HitRate,
		RowHitRate: r.RowHitRate, NetEnergyJ: r.NetEnergyJ,
	}
}

// psJitter is the simulated-time tolerance of a design-point check. The
// CMN organization's analytic memcpy sums per-cluster transfer times in
// map order, so its copy phases (and everything after them) can move by
// 1 ps from run to run; every other statistic must match exactly up to
// floating-point rounding.
const psJitter = 2

func (a pointStats) matches(b pointStats) bool {
	near := func(x, y sim.Time) bool { return x-y <= psJitter && y-x <= psJitter }
	approx := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }
	return near(a.H2D, b.H2D) && near(a.Kernel, b.Kernel) && near(a.Host, b.Host) &&
		near(a.D2H, b.D2H) && near(a.Total, b.Total) && near(a.PktLatency, b.PktLatency) &&
		near(a.P99PktLatency, b.P99PktLatency) && near(a.GPUMemLat, b.GPUMemLat) &&
		near(a.HostMemLat, b.HostMemLat) && near(sim.Time(a.HostStall), sim.Time(b.HostStall)) &&
		a.CTAsStolen == b.CTAsStolen && approx(a.AvgHops, b.AvgHops) &&
		approx(a.L1HitRate, b.L1HitRate) && approx(a.L2HitRate, b.L2HitRate) &&
		approx(a.RowHitRate, b.RowHitRate) && approx(a.NetEnergyJ, b.NetEnergyJ)
}

func checkPoint(out *outcome, key string, got pointStats) {
	want, ok := golden.Fig14[key]
	switch {
	case !ok:
		out.fail("%s: no golden statistics", key)
	case !got.matches(want):
		out.fail("%s: statistics %+v, golden %+v", key, got, want)
	}
}

// updateGolden recomputes every digest and writes them to path. It also
// cross-checks the benchmark's own drivers against the registry: each
// design point against exp.Fig14, each load point against
// noc.RunSynthetic.
func updateGolden(path string) error {
	g := goldenFile{Digests: map[string]string{}, Fig14: map[string]pointStats{}}

	fig14, err := exp.Fig14(fig14Scale, nil)
	if err != nil {
		return err
	}
	cells := map[string]exp.Fig14Cell{}
	for _, row := range fig14.Rows {
		for _, c := range row.Cells {
			cells["fig14/"+row.Workload+"/"+c.Arch] = c
		}
	}
	for _, p := range fig14Points(false) {
		res, err := core.Run(p.config())
		if err != nil {
			return fmt.Errorf("%s: %w", p.key(), err)
		}
		c, st := cells[p.key()], statsOf(res)
		ref := st
		ref.H2D, ref.Kernel, ref.Host, ref.D2H, ref.Total = c.H2D, c.Kernel, c.Host, c.D2H, c.Total
		if !st.matches(ref) {
			return fmt.Errorf("%s: differs from exp.Fig14", p.key())
		}
		g.Fig14[p.key()] = st
	}

	for _, p := range nocPoints(false) {
		eng, b, err := buildPoint(p)
		if err != nil {
			return err
		}
		lp := drive(eng, b, p)
		syn := noc.DefaultSyntheticConfig()
		syn.Pattern = p.pattern
		syn.FailLinks = p.failed
		syn.FailSeed = nocFailSeed
		ref, err := noc.RunSynthetic(p.spec(), noc.DefaultConfig(), syn, nocLoad)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ref, lp) {
			return fmt.Errorf("%s: %+v differs from noc.RunSynthetic's %+v", p.key(), lp, ref)
		}
		data, err := json.Marshal(nocDigest{lp, b.Net.FlitsRetired(), b.Net.Cycle()})
		if err != nil {
			return err
		}
		g.Digests[p.key()] = digest(data)
	}

	for _, s := range coldOrder(0) {
		ref, err := s.reference()
		if err != nil {
			return err
		}
		g.Digests[s.key()] = digest(ref)
	}

	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
