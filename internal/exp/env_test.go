package exp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/obs"
	"memnet/internal/par"
	"memnet/internal/prof"
	"memnet/internal/sim"
)

// TestEnvIsolation runs registry experiments concurrently, each with its
// own Env — one with a fault schedule and a progress sink, one with a
// tripped stop latch, one plain — and checks that nothing leaks between
// them: the stopped job stops, and the others render exactly what they
// render when the same jobs run one after another.
func TestEnvIsolation(t *testing.T) {
	stop := &sim.Stop{}
	stop.Trip("cancelled by test")
	var events atomic.Int64
	faulted := Env{
		Faults: &fault.Schedule{Seed: 3, Events: []fault.Event{
			{At: 1 * sim.Microsecond, Kind: fault.LinkDown, Channel: -1},
			{At: 90 * sim.Microsecond, Kind: fault.LinkDown, Channel: -1},
		}},
		Progress: func(obs.ProgressEvent) { events.Add(1) },
	}
	jobs := []struct {
		name string
		p    Params
	}{
		{"placement", Params{Scale: 0.05, Workloads: []string{"KMN"}, Env: faulted}},
		{"fig14", Params{Scale: 0.05, Workloads: []string{"BP"}, Env: Env{Stop: stop}}},
		{"placement", Params{Scale: 0.05, Workloads: []string{"KMN"}}},
	}
	run := func(i int) (string, error) {
		e, ok := Find(jobs[i].name)
		if !ok {
			t.Fatalf("experiment %q missing from the registry", jobs[i].name)
		}
		return e.Run(jobs[i].p)
	}

	seqOut := make([]string, len(jobs))
	seqErr := make([]error, len(jobs))
	for i := range jobs {
		seqOut[i], seqErr[i] = run(i)
	}
	seqEvents := events.Swap(0)

	concOut := make([]string, len(jobs))
	concErr := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concOut[i], concErr[i] = run(i)
		}(i)
	}
	wg.Wait()

	for i, errs := range [][]error{seqErr, concErr} {
		mode := []string{"sequential", "concurrent"}[i]
		if !errors.Is(errs[1], core.ErrStopped) {
			t.Fatalf("%s: stopped job returned %v, want core.ErrStopped", mode, errs[1])
		}
		for _, j := range []int{0, 2} {
			if errs[j] != nil {
				t.Fatalf("%s: job %d failed: %v", mode, j, errs[j])
			}
		}
	}
	for _, j := range []int{0, 2} {
		if concOut[j] != seqOut[j] {
			t.Errorf("job %d differs when run concurrently:\n--- sequential ---\n%s\n--- concurrent ---\n%s", j, seqOut[j], concOut[j])
		}
	}
	if seqOut[0] == seqOut[2] {
		t.Error("the fault schedule did not change the faulted job's output, so the test cannot see a leak")
	}
	if seqEvents == 0 || events.Load() != seqEvents {
		t.Errorf("progress sink saw %d events in sequence and %d concurrently, want the same non-zero count", seqEvents, events.Load())
	}
}

// envArtifacts runs Fig. 7 under the Env that env builds for a fresh
// directory, once on one worker and once on two, and checks that each
// holds exactly the named per-run files, with the same bytes. It returns
// the one-worker directory.
func envArtifacts(t *testing.T, env func(dir string) Env, exts ...string) string {
	t.Helper()
	run := func(width int) string {
		prev := par.SetParallelism(width)
		defer par.SetParallelism(prev)
		dir := t.TempDir()
		if _, err := env(dir).Fig7(0.05); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	one, two := run(1), run(2)
	var want []string
	for i, arch := range []string{"PCIe", "PCIe", "PCIe", "GMN", "GMN", "GMN"} {
		for _, ext := range exts {
			want = append(want, fmt.Sprintf("fig7-%d-VA-%s%s", i, arch, ext))
		}
	}
	for _, name := range want {
		a, err := os.ReadFile(filepath.Join(one, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(two, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between one and two workers", name)
		}
	}
	for _, dir := range []string{one, two} {
		if files, _ := os.ReadDir(dir); len(files) != len(want) {
			t.Errorf("%s holds %d files, want %d", dir, len(files), len(want))
		}
	}
	return one
}

// TestEnvObsDirectories checks the trace and metrics directories: one
// trace and one metrics file per simulation, named by experiment and job
// index, with the same names and bytes whether the runs execute on one
// worker or two.
func TestEnvObsDirectories(t *testing.T) {
	envArtifacts(t, func(dir string) Env {
		return Env{TraceDir: dir, MetricsDir: dir, MetricsEpoch: 2 * sim.Microsecond}
	}, ".metrics.csv", ".trace.json")
}

// TestEnvProfileDirectory checks the profile directory: one loadable
// profile per simulation, named and byte-identical as for the traces.
func TestEnvProfileDirectory(t *testing.T) {
	dir := envArtifacts(t, func(dir string) Env {
		return Env{ProfileDir: dir}
	}, ".profile.json")
	if _, err := prof.LoadFile(filepath.Join(dir, "fig7-0-VA-PCIe.profile.json")); err != nil {
		t.Fatal(err)
	}
}

// TestEnvStop checks that an Env's stop latch governs the runs made
// through that Env and no others: the same figure under the zero Env
// still completes.
func TestEnvStop(t *testing.T) {
	stop := &sim.Stop{}
	stop.Trip("cancelled by test")
	if _, err := (Env{Stop: stop}).Fig7(0.05); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("fig7 under a tripped latch returned %v, want core.ErrStopped", err)
	}
	if _, err := (Env{}).Fig7(0.05); err != nil {
		t.Fatalf("fig7 without the latch failed: %v", err)
	}
}
