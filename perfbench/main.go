// Command perfbench is the memnet benchmark of record. It drives each layer
// from outside, through its public entry points only: core.NewSystem and
// System.Execute for the Fig. 14 design points, noc.BuildTopology and the
// noc send/deliver API for the saturated network, and serve.New with
// Server.Handler over loopback HTTP for memnetd. Nothing inside the
// simulator or the server is changed or hooked.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload fig14-sweep --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 the run is split into an untraced half
// and a traced half (CPU profile folded by module plus benchmark-side
// spans), and the metrics are the per-layer set, including the tracing
// overhead. The lines before it are a human-readable table and an "env"
// line recording the host, which compare.py uses to refuse comparisons
// across different CPU counts. The process exits 1 if any output check
// failed and 2 on a usage error. A traced run writes its spans and module
// table under traceDir.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"memnet/internal/core"
)

// options are the inputs of one measured phase.
type options struct {
	seed    int64
	seconds time.Duration
	// tiny shrinks every workload to a few jobs; the self-test uses it.
	tiny bool
}

// workload is one named traffic mix the benchmark can run.
type workload struct {
	name string
	run  func(o options, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"fig14-sweep", runFig14},
	{"noc-saturated", runNoC},
	{"serve-mixed", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int
	problems          []string

	setup  []float64 // seconds, one entry per set-up round
	lat    []jobLat  // one entry per job inside the measured window
	window time.Duration
	passes int    // complete passes over the workload's job list
	alloc  uint64 // bytes allocated inside the measured window

	// layer holds the workload's own per-layer values, keyed by the
	// per-layer metric names below; names a workload does not measure
	// stay absent and report 0.
	layer map[string]float64
}

type jobLat struct {
	ms   float64
	cold bool // the job ran a simulation (every job except a served cache hit)
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// fail counts one failed, refused or wrong-output operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// window brackets the measured part of a phase: wall time and bytes
// allocated.
type window struct {
	start time.Time
	alloc uint64
}

func openWindow() window {
	runtime.GC() // start from a collected heap, not set-up's garbage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{start: time.Now(), alloc: ms.TotalAlloc}
}

func (w window) close(o *outcome) {
	o.window = time.Since(w.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.alloc = ms.TotalAlloc - w.alloc
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees; every workload
// reports all of them (see README.md for what a "job" is per workload).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerDefs are the traced run's metrics. Self times are shares of the
// CPU profile's samples; prof.cpu_s converts them back to seconds.
var perLayerDefs = append(append([]metricDef{
	{"prof.samples", "count"},
	{"prof.cpu_s", "s"},
	{"trace.overhead_pct", "%"},
}, moduleDefs()...),
	metricDef{"core.new_system_ms.p50", "ms"},
	metricDef{"core.new_system_ms.p90", "ms"},
	metricDef{"core.execute_ms.p50", "ms"},
	metricDef{"core.execute_ms.p90", "ms"},
	metricDef{"noc.build_topology_ms.p50", "ms"},
	metricDef{"noc.traffic_ms.p50", "ms"},
	metricDef{"serve.http_ms.p90", "ms"},
	metricDef{"job.latency_ms.p90", "ms"},
	metricDef{"job.latency_ms.p99", "ms"},
	metricDef{"sim_us_per_s", "sim_us/s"},
	metricDef{"flits_per_s", "flit/s"},
	metricDef{"noc.channel_util", "ratio"},
	metricDef{"noc.cycles_stepped", "count"},
	metricDef{"noc.router_visits_per_flit", "ratio"},
	metricDef{"noc.flits_retired", "count"},
	metricDef{"noc.rt_throughput", "flit/cyc"},
	metricDef{"sim.simulated_us", "sim_us"},
	metricDef{"gpu.l1_hit_rate", "ratio"},
	metricDef{"gpu.l2_hit_rate", "ratio"},
	metricDef{"hmc.row_hit_rate", "ratio"},
	metricDef{"ske.ctas_stolen", "count"},
	metricDef{"cpu.stall_us", "sim_us"},
	metricDef{"serve.queue_wait_ms.mean", "ms"},
	metricDef{"serve.run_ms.mean", "ms"},
	metricDef{"par.busy_ratio", "ratio"},
	metricDef{"serve.hit_ratio", "ratio"},
	metricDef{"serve.hit_slow_pct", "%"},
	metricDef{"serve.hit_p99_ms", "ms"},
	metricDef{"serve.simulations_run", "count"},
	metricDef{"serve.deduped", "count"},
	metricDef{"serve.rejected", "count"},
	metricDef{"serve.shed", "count"},
	metricDef{"cachedir.writes", "count"},
)

func moduleDefs() []metricDef {
	var out []metricDef
	for _, m := range modules {
		out = append(out, metricDef{m + ".self_pct", "%"})
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result plus what the human-readable table adds to it.
type report struct {
	result
	order    []metricDef        // Metrics in presentation order
	extra    map[string]float64 // measured but not part of this mode's set
	problems []string
	traceOut string

	// A traced run's spans and module table, written out by main.
	tr   *tracer
	prof *profileTable
}

func pick(defs []metricDef, vals map[string]float64) (map[string]metric, []metricDef) {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m, defs
}

// endToEnd derives the end-to-end metrics from an untraced phase.
func endToEnd(o *outcome) map[string]float64 {
	var all, cold []float64
	for _, l := range o.lat {
		all = append(all, l.ms)
		if l.cold {
			cold = append(cold, l.ms)
		}
	}
	v := map[string]float64{
		"setup_s":     median(o.setup),
		"p50_ms":      percentile(all, 50),
		"cold_p90_ms": percentile(cold, 90),
		"peak_rss_mb": peakRSSMB(),
	}
	if n := len(o.lat); n > 0 {
		v["jobs_per_s"] = float64(n) / o.window.Seconds()
		v["alloc_mb_per_job"] = float64(o.alloc) / 1e6 / float64(n)
	}
	return v
}

// Set-up repeats before the measured window until it has run at least
// minSetupRounds times and for at least setupBudget; setup_s is the median
// round.
const (
	minSetupRounds = 9
	setupBudget    = 2 * time.Second
)

func repeatSetup(out *outcome, tr *tracer, name string, round func() error) error {
	start := time.Now()
	for r := 0; r < minSetupRounds || time.Since(start) < setupBudget; r++ {
		runtime.GC() // every round starts from a collected heap
		sp := tr.begin(kindRound, name, 0)
		t := time.Now()
		err := round()
		out.setup = append(out.setup, time.Since(t).Seconds())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs one workload in the requested mode and assembles the report.
func measure(w workload, o options, traced bool) (*report, error) {
	// The simulator self-audits by default outside its CLIs; the benchmark
	// measures the same configuration memnetd and the CLIs run.
	core.SetAuditDefault(false)
	rep := &report{}
	add := func(out *outcome) {
		rep.Attempted += out.attempted
		rep.Failed += out.failed
		rep.problems = append(rep.problems, out.problems...)
	}
	if !traced {
		out, err := w.run(o, nil)
		if err != nil {
			return nil, err
		}
		add(out)
		rep.Metrics, rep.order = pick(endToEndDefs, endToEnd(out))
		rep.extra = out.layer
		rep.extra["fail_ratio"] = float64(rep.Failed) / math.Max(1, float64(rep.Attempted))
	} else {
		// Half the budget untraced, half traced: the difference in job
		// throughput between the two is the tracing overhead.
		half := o
		half.seconds = o.seconds / 2
		base, err := w.run(half, nil)
		if err != nil {
			return nil, err
		}
		add(base)
		tr := newTracer()
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		out, err := w.run(half, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		add(out)
		prof, err := foldProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		vals := perLayer(out, tr, prof)
		baseRate := float64(len(base.lat)) / base.window.Seconds()
		tracedRate := float64(len(out.lat)) / out.window.Seconds()
		vals["trace.overhead_pct"] = 100 * (baseRate/tracedRate - 1)
		rep.Metrics, rep.order = pick(perLayerDefs, vals)
		rep.tr, rep.prof = tr, prof
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// perLayer derives the per-layer metrics of a traced phase.
func perLayer(o *outcome, tr *tracer, p *profileTable) map[string]float64 {
	v := make(map[string]float64, len(perLayerDefs))
	for k, x := range o.layer {
		v[k] = x
	}
	v["prof.samples"] = float64(p.samples)
	v["prof.cpu_s"] = p.cpuNS / 1e9
	for _, m := range modules {
		if p.cpuNS > 0 {
			v[m+".self_pct"] = 100 * p.byModule[m] / p.cpuNS
		}
	}
	for _, s := range []struct {
		span, metric string
		ps           []float64
	}{
		{spanNewSystem, "core.new_system_ms", []float64{50, 90}},
		{spanExecute, "core.execute_ms", []float64{50, 90}},
		{spanBuildTopology, "noc.build_topology_ms", []float64{50}},
		{spanTraffic, "noc.traffic_ms", []float64{50}},
		{spanHTTP, "serve.http_ms", []float64{90}},
	} {
		d := tr.durationsMS(s.span)
		for _, p := range s.ps {
			v[fmt.Sprintf("%s.p%g", s.metric, p)] = percentile(d, p)
		}
	}
	var all []float64
	for _, l := range o.lat {
		all = append(all, l.ms)
	}
	v["job.latency_ms.p90"] = percentile(all, 90)
	v["job.latency_ms.p99"] = percentile(all, 99)
	return v
}

// percentile is the nearest-rank percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median averages the middle pair of an even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostEnv records what a result can only be compared against like for
// like: CPU count, scheduler width, toolchain and the commit built.
func hostEnv() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			commit += "-dirty"
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

func printReport(rep *report, name string, o options, traced bool) error {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g %s\n", name, o.seed, o.seconds.Seconds(), mode)
	env, err := json.Marshal(hostEnv())
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", env)
	for _, d := range rep.order {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	if len(rep.extra) > 0 {
		fmt.Println("  also measured (not gated):")
		keys := make([]string, 0, len(rep.extra))
		for k := range rep.extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-28s %14.6g\n", k, rep.extra[k])
		}
	}
	if rep.traceOut != "" {
		fmt.Printf("  spans and module table written to %s\n", rep.traceOut)
	}
	fmt.Printf("  attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, p := range rep.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: fig14-sweep, noc-saturated or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	update := flag.String("update-golden", "", "recompute every golden digest into this file and exit")
	flag.Parse()

	if *update != "" {
		core.SetAuditDefault(false)
		if err := updateGolden(*update); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig14-sweep|noc-saturated|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	rep, err := measure(w, o, *trace == 1)
	if err == nil && rep.tr != nil {
		rep.traceOut, err = writeTrace(w.name, o.seed, rep.tr, rep.prof)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(rep, w.name, o, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}
