package core

import (
	"encoding/json"
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
		if sysOn.Tracer() == nil || sysOn.Sampler() == nil {
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
		if sysOff.Tracer() != nil || sysOff.Sampler() != nil {
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
