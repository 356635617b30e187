package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memnet/internal/sim"
)

// traceFile mirrors the Chrome trace_event JSON the tracer writes.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// TestObsOnMatchesOff mirrors the audit byte-identity test: a traced run
// must report exactly the figures of a plain run — the obs layer observes
// between events but never schedules any.
func TestObsOnMatchesOff(t *testing.T) {
	for _, arch := range []Arch{PCIe, UMN} {
		dir := t.TempDir()
		cfgOn := tiny(arch, "BP")
		cfgOn.TraceOut = filepath.Join(dir, "run.trace.json")
		cfgOn.MetricsOut = filepath.Join(dir, "run.metrics.csv")
		sysOn, err := NewSystem(cfgOn)
		if err != nil {
			t.Fatal(err)
		}
		if sysOn.Probe().Trace == nil || sysOn.Probe().Metrics == nil {
			t.Fatalf("%v: obs outputs named but tracer/sampler missing", arch)
		}
		resOn, err := sysOn.Execute()
		if err != nil {
			t.Fatalf("%v: traced run failed: %v", arch, err)
		}
		for _, f := range []string{cfgOn.TraceOut, cfgOn.MetricsOut} {
			if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
				t.Fatalf("%v: output %s missing or empty (%v)", arch, f, err)
			}
		}

		cfgOff := tiny(arch, "BP")
		sysOff, err := NewSystem(cfgOff)
		if err != nil {
			t.Fatal(err)
		}
		if sysOff.Probe().Trace != nil || sysOff.Probe().Metrics != nil {
			t.Fatalf("%v: obs built without outputs named", arch)
		}
		resOff, err := sysOff.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if resOn.Total != resOff.Total || resOn.Kernel != resOff.Kernel ||
			resOn.H2D != resOff.H2D || resOn.Host != resOff.Host ||
			resOn.D2H != resOff.D2H {
			t.Fatalf("%v: traced results diverge: %+v vs %+v", arch, resOn, resOff)
		}
	}
}

// TestTraceContents runs a traced UMN+overlay system and checks the trace
// is valid JSON carrying the advertised timelines: SKE, a GPU, the host
// phases, HMC vaults, NoC channel counters and the overlay pass-through
// gauge, with timestamps monotone in file order.
func TestTraceContents(t *testing.T) {
	dir := t.TempDir()
	cfg := tiny(UMN, "VA")
	cfg.Overlay = true
	cfg.TraceOut = filepath.Join(dir, "umn.trace.json")
	cfg.MetricsOut = filepath.Join(dir, "umn.metrics.jsonl")
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Execute(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(cfg.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatalf("trace is not valid JSON")
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}

	threads := map[string]bool{}
	counters := map[string]bool{}
	spansByTid := map[int]int{}
	tidByName := map[string]int{}
	lastTS := -1.0
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				name, _ := e.Args["name"].(string)
				threads[name] = true
				tidByName[name] = e.Tid
			}
			continue
		case "C":
			counters[e.Name] = true
		case "X":
			spansByTid[e.Tid]++
		}
		if e.Ts < lastTS {
			t.Fatalf("timestamps not monotone in file order: %v after %v", e.Ts, lastTS)
		}
		lastTS = e.Ts
	}
	for _, want := range []string{"ske", "ske/gpu0", "gpu0", "host", "metrics", "hmc0/v0"} {
		if !threads[want] {
			t.Errorf("trace has no %q track (tracks: %v)", want, threads)
		}
	}
	for _, want := range []string{"noc/ch0.util", "noc/overlay.pass", "active_ctas"} {
		if !counters[want] {
			t.Errorf("trace has no %q counter series", want)
		}
	}
	// The timeline itself must carry work: kernel spans on SKE's track,
	// host phase spans, and bank activity on at least one vault.
	for _, name := range []string{"ske", "host"} {
		if spansByTid[tidByName[name]] == 0 {
			t.Errorf("track %q recorded no spans", name)
		}
	}
	vaultSpans := 0
	for name, tid := range tidByName {
		if strings.Contains(name, "/v") && strings.HasPrefix(name, "hmc") {
			vaultSpans += spansByTid[tid]
		}
	}
	if vaultSpans == 0 {
		t.Error("no HMC vault recorded a bank access span")
	}

	// The JSONL metrics variant: every line an object carrying the gauges.
	mraw, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(mraw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("metrics JSONL is empty")
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if _, ok := m["noc/overlay.pass"]; !ok {
			t.Fatalf("JSONL row missing overlay gauge: %q", ln)
		}
	}
}

// TestAttachOrder pins the order in which components attach to a run's
// collectors. Trace track ids and metrics CSV columns follow it, so a
// reorder would silently renumber every track and move every column of
// every artifact.
func TestAttachOrder(t *testing.T) {
	for _, arch := range []Arch{PCIe, UMN} {
		dir := t.TempDir()
		cfg := tiny(arch, "VA")
		cfg.Overlay = arch == UMN
		cfg.TraceOut = filepath.Join(dir, "run.trace.json")
		cfg.MetricsOut = filepath.Join(dir, "run.metrics.csv")
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Execute(); err != nil {
			t.Fatal(err)
		}
		hmcs := sys.Network().NumRouters()

		wantTracks := []string{"host", "ske"}
		for g := 0; g < cfg.NumGPUs; g++ {
			wantTracks = append(wantTracks, fmt.Sprintf("ske/gpu%d", g))
		}
		for g := 0; g < cfg.NumGPUs; g++ {
			wantTracks = append(wantTracks, fmt.Sprintf("gpu%d", g))
		}
		for h := 0; h < hmcs; h++ {
			for v := 0; v < cfg.HMC.Vaults; v++ {
				wantTracks = append(wantTracks, fmt.Sprintf("hmc%d/v%d", h, v))
			}
		}
		if arch == PCIe {
			for g := 0; g < cfg.NumGPUs; g++ {
				wantTracks = append(wantTracks, fmt.Sprintf("pcie/gpu%d", g))
			}
			wantTracks = append(wantTracks, "pcie/cpu")
		}
		wantTracks = append(wantTracks, "noc/fault", "metrics")

		wantCols := []string{"window", "time_ps"}
		for h := 0; h < hmcs; h++ {
			wantCols = append(wantCols, fmt.Sprintf("hmc%d.queued", h))
		}
		if arch == PCIe {
			wantCols = append(wantCols, "pcie.bytes", "pcie.timeouts", "pcie.open_rt")
		}
		wantCols = append(wantCols, "noc.injected", "noc.retired", "noc.link_retries")
		for c := 0; c < sys.Network().NumChannels(); c++ {
			wantCols = append(wantCols, fmt.Sprintf("noc/ch%d.util", c))
		}
		for r := 0; r < hmcs; r++ {
			wantCols = append(wantCols, fmt.Sprintf("noc/r%d.vcbuf", r))
		}
		if cfg.Overlay {
			wantCols = append(wantCols, "noc/overlay.pass")
		}

		raw, err := os.ReadFile(cfg.TraceOut)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		var tracks []string
		for _, e := range tf.TraceEvents {
			if e.Ph != "M" || e.Name != "thread_name" {
				continue
			}
			if e.Tid != len(tracks)+1 {
				t.Fatalf("%v: track %q has tid %d, want %d", arch, e.Args["name"], e.Tid, len(tracks)+1)
			}
			name, _ := e.Args["name"].(string)
			tracks = append(tracks, name)
		}
		if d := orderDiff(tracks, wantTracks); d != "" {
			t.Errorf("%v: trace track %s", arch, d)
		}

		mraw, err := os.ReadFile(cfg.MetricsOut)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(string(mraw), "\n")
		if d := orderDiff(strings.Split(header, ","), wantCols); d != "" {
			t.Errorf("%v: metrics column %s", arch, d)
		}
	}
}

// orderDiff describes the first position where got and want differ, or
// returns "" when they are equal.
func orderDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "(none)", "(none)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("%d is %q, want %q", i, g, w)
		}
	}
	return ""
}

// TestMetricsRowCount checks the sampler contract end to end: a run of
// duration T with epoch E yields exactly ⌈T/E⌉ metrics rows.
func TestMetricsRowCount(t *testing.T) {
	dir := t.TempDir()
	cfg := tiny(GMN, "VA")
	cfg.MetricsOut = filepath.Join(dir, "gmn.metrics.csv")
	cfg.MetricsEpoch = 500 * sim.Nanosecond
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Execute()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !strings.HasPrefix(lines[0], "window,time_ps,") {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	got := len(lines) - 1
	want := int((res.Total + cfg.MetricsEpoch - 1) / cfg.MetricsEpoch)
	if got != want {
		t.Fatalf("metrics rows = %d, want ⌈%d/%d⌉ = %d", got, res.Total, cfg.MetricsEpoch, want)
	}
}
