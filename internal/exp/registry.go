package exp

import (
	"fmt"
	"math"
	"strings"

	"memnet/internal/workload"
)

// Params parameterizes one registry experiment run. Every experiment reads
// only the fields its Experiment entry declares (Uses* flags); the rest
// are ignored, which lets callers canonicalize a request by zeroing the
// irrelevant fields before hashing it.
type Params struct {
	Scale     float64  // workload scale (1.0 = default simulation size)
	Workloads []string // workload subset (nil = the per-experiment default)
	GPUs      []int    // GPU counts for the scalability sweep
	DegLinks  int      // max failed link pairs for the degradation sweep

	// Env is applied to every simulation the experiment runs; Validate
	// ignores it.
	Env Env
}

// DefaultParams mirrors cmd/experiments' flag defaults.
func DefaultParams() Params {
	return Params{Scale: 0.25, GPUs: []int{1, 2, 4, 8, 16}, DegLinks: 4}
}

// Validation bounds. They exist to fail fast on garbage (negative counts,
// non-finite scales) and to keep a serving layer from accepting requests
// that could never finish; all real paper configurations sit far inside
// them.
const (
	maxScale    = 100.0
	maxGPUCount = 256
	maxGPUList  = 32
	maxDegLinks = 4096
)

// Validate rejects parameter values that earlier versions silently
// accepted and then misbehaved on mid-run: non-finite or non-positive
// scales, unknown workload names, non-positive GPU counts and negative
// degradation sweeps. Zero-valued fields (unset) are skipped, so a caller
// may validate a partially filled Params before applying defaults.
func (p Params) Validate() error {
	if p.Scale != 0 {
		if math.IsNaN(p.Scale) || math.IsInf(p.Scale, 0) || p.Scale < 0 {
			return fmt.Errorf("exp: scale must be a positive finite number, got %v", p.Scale)
		}
		if p.Scale > maxScale {
			return fmt.Errorf("exp: scale %v exceeds the maximum %v", p.Scale, maxScale)
		}
	}
	known := workload.Names()
	for _, wl := range p.Workloads {
		found := false
		for _, k := range known {
			if wl == k {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("exp: unknown workload %q (known: %s)", wl, strings.Join(known, " "))
		}
	}
	if len(p.GPUs) > maxGPUList {
		return fmt.Errorf("exp: too many GPU counts (%d, max %d)", len(p.GPUs), maxGPUList)
	}
	for _, g := range p.GPUs {
		if g <= 0 || g > maxGPUCount {
			return fmt.Errorf("exp: GPU count %d out of range [1, %d]", g, maxGPUCount)
		}
	}
	if p.DegLinks < 0 || p.DegLinks > maxDegLinks {
		return fmt.Errorf("exp: deg-links %d out of range [0, %d]", p.DegLinks, maxDegLinks)
	}
	return nil
}

// Experiment is one entry of the registry: a named, parameterized figure
// or table renderer. Run returns exactly the text cmd/experiments prints
// for this experiment, so a serving layer's results can be byte-compared
// against the CLI's output.
type Experiment struct {
	Name string
	Desc string

	// Which Params fields Run reads. Canonicalization zeroes the rest so
	// that requests differing only in irrelevant fields hash identically.
	UsesScale     bool
	UsesWorkloads bool
	UsesGPUs      bool
	UsesDegLinks  bool

	Run func(Params) (string, error)
}

// registry lists the experiments in presentation order (the order -exp all
// renders). fig16 and fig17 share the same runs and table; Find resolves
// the alias.
var registry = []Experiment{
	{Name: "table2", Desc: "Table II — evaluated workloads",
		Run: func(Params) (string, error) { return TableII(), nil }},
	{Name: "fig7", Desc: "Fig. 7 — cost of remote memory access (PCIe vs GMN)",
		UsesScale: true,
		Run: func(p Params) (string, error) {
			r, err := p.Env.Fig7(p.Scale)
			return render(r, err)
		}},
	{Name: "fig10", Desc: "Fig. 10 — GPU-to-HMC traffic distribution",
		UsesScale: true,
		Run: func(p Params) (string, error) {
			rs, err := p.Env.Fig10(p.Scale)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range rs {
				fmt.Fprintln(&b, r)
			}
			return strings.TrimSuffix(b.String(), "\n"), nil
		}},
	{Name: "fig12", Desc: "Fig. 12 — bidirectional channel counts (dFBFLY vs sFBFLY)",
		Run: func(Params) (string, error) {
			rows, err := Fig12()
			if err != nil {
				return "", err
			}
			return Fig12String(rows), nil
		}},
	{Name: "fig14", Desc: "Fig. 14 — runtime breakdown across architectures",
		UsesScale: true, UsesWorkloads: true,
		Run: func(p Params) (string, error) {
			r, err := p.Env.Fig14(p.Scale, p.Workloads)
			return render(r, err)
		}},
	{Name: "fig15", Desc: "Fig. 15 — minimal vs UGAL routing",
		UsesScale: true,
		Run: func(p Params) (string, error) {
			rows, err := p.Env.Fig15(p.Scale)
			if err != nil {
				return "", err
			}
			return Fig15String(rows), nil
		}},
	{Name: "fig16", Desc: "Fig. 16/17 — sliced topologies: performance and energy",
		UsesScale: true, UsesWorkloads: true,
		Run: func(p Params) (string, error) {
			rows, err := p.Env.Fig16(p.Scale, p.Workloads)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintln(&b, TopoRowsString(rows))
			perf := GeomeanBy(rows, "sMESH", "sFBFLY", func(r TopoRow) float64 { return float64(r.Kernel) })
			en := GeomeanBy(rows, "sMESH", "sFBFLY", func(r TopoRow) float64 { return r.EnergyJ })
			fmt.Fprintf(&b, "sFBFLY vs sMESH: %.2fx faster, %.1f%% network energy saved (geomean)\n", perf, 100*(1-1/en))
			return b.String(), nil
		}},
	{Name: "fig18", Desc: "Fig. 18 — UMN designs for the host thread",
		UsesScale: true,
		Run: func(p Params) (string, error) {
			rows, err := p.Env.Fig18(p.Scale)
			if err != nil {
				return "", err
			}
			return Fig18String(rows), nil
		}},
	{Name: "fig19", Desc: "Fig. 19 — kernel speedup vs GPU count",
		UsesScale: true, UsesGPUs: true,
		Run: func(p Params) (string, error) {
			rows, gm, err := p.Env.Fig19(p.Scale, p.GPUs)
			if err != nil {
				return "", err
			}
			return Fig19String(rows, gm), nil
		}},
	{Name: "placement", Desc: "Extension — page placement: random vs owner-compute",
		UsesScale: true, UsesWorkloads: true,
		Run: func(p Params) (string, error) {
			rows, err := p.Env.Placement(p.Scale, p.Workloads)
			if err != nil {
				return "", err
			}
			return PlacementString(rows), nil
		}},
	{Name: "ctasched", Desc: "Section III-B — CTA assignment policies",
		UsesScale: true, UsesWorkloads: true,
		Run: func(p Params) (string, error) {
			rows, err := p.Env.CTASched(p.Scale, p.Workloads)
			if err != nil {
				return "", err
			}
			return SchedString(rows), nil
		}},
	{Name: "degradation", Desc: "Extension — throughput degradation vs failed links",
		UsesDegLinks: true,
		Run: func(p Params) (string, error) {
			rows, err := p.Env.Degradation(p.DegLinks)
			if err != nil {
				return "", err
			}
			return DegradationString(rows), nil
		}},
}

// aliases maps alternate experiment names onto registry entries.
var aliases = map[string]string{"fig17": "fig16"}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment { return registry }

// Names returns the registry's experiment names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].Name
	}
	return out
}

// Find returns the named experiment, resolving aliases (fig17 → fig16).
func Find(name string) (Experiment, bool) {
	if a, ok := aliases[name]; ok {
		name = a
	}
	for i := range registry {
		if registry[i].Name == name {
			return registry[i], true
		}
	}
	return Experiment{}, false
}

// render narrows a (fmt.Stringer, error) pair to (string, error).
func render(s fmt.Stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return s.String(), nil
}
