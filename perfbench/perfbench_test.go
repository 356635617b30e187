package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

type benchDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric lists the benchmark is declared with.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []benchDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []benchDef `json:"end_to_end"`
		PerLayer []benchDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each declared metric is emitted, finite and
// carries its unit, and that every output check passes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	endToEnd, perLayer := benchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				o := options{seed: 1, seconds: time.Second, tiny: true}
				rep, err := measure(w, o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"memnet/internal/noc.(*Router).switchTraversal", "memnet/internal/noc.(*Network).step"}, "noc"},
		{[]string{"runtime.memmove", "memnet/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "memnet/internal/noc.New"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.(*decodeState).object", "memnet/internal/serve.decodeSpec"}, "serve"},
		{[]string{"memnet/internal/serve/cachedir.(*Store).Put"}, "cachedir"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read"}, "nethttp"},
		{[]string{"crypto/sha256.block", "memnet/internal/serve.(*JobSpec).Key"}, "crypto"},
		{[]string{"memnet/internal/par.Map[go.shape.struct { memnet/internal/exp.x int }]"}, "par"},
		{[]string{"memnet/internal/obs.(*Tracer).Span"}, "other"},
		{[]string{"main.runPoint"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}
