package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/fault"
	"memnet/internal/serve"
	"memnet/internal/telemetry"
)

// testTimeout bounds every blocking wait in this file.
const testTimeout = 30 * time.Second

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	t.Cleanup(cancel)
	return ctx
}

// countingRunner returns a Runner that records execution order and count
// and blocks each job until a token arrives on gate (nil gate = no block).
func countingRunner(gate chan struct{}, started chan<- string) (Runner, *runLog) {
	lg := &runLog{}
	return func(spec *serve.JobSpec, _ exp.Env) (string, error) {
		tag := fmt.Sprintf("%s/%v", spec.Experiment, spec.Scale)
		if started != nil {
			started <- tag
		}
		if gate != nil {
			<-gate
		}
		lg.add(tag)
		return "result of " + tag + "\n", nil
	}, lg
}

type Runner = serve.Runner

type runLog struct {
	mu    sync.Mutex
	order []string
}

func (l *runLog) add(tag string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.order = append(l.order, tag)
}

func (l *runLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func spec(experiment string, scale float64, client string) *serve.JobSpec {
	return &serve.JobSpec{Experiment: experiment, Scale: scale, Client: client}
}

// submitWait submits a spec and waits for its result.
func submitWait(t *testing.T, s *serve.Server, sp *serve.JobSpec) string {
	t.Helper()
	key, _, _, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Wait(ctxT(t), key)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCanonicalize covers the input-hardening rules: aliases resolve,
// irrelevant parameters do not split the cache, defaults fill in, and
// garbage is rejected upfront.
func TestCanonicalize(t *testing.T) {
	key := func(sp *serve.JobSpec) string {
		t.Helper()
		if err := sp.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		return sp.Key()
	}

	// Irrelevant parameters are zeroed: fig7 ignores GPUs and DegLinks.
	a := key(&serve.JobSpec{Experiment: "fig7", Scale: 0.1})
	b := key(&serve.JobSpec{Experiment: "fig7", Scale: 0.1, GPUs: []int{8}, DegLinks: 9})
	if a != b {
		t.Fatal("irrelevant parameters changed the cache key")
	}
	// The client is not part of the identity.
	c := key(&serve.JobSpec{Experiment: "fig7", Scale: 0.1, Client: "alice"})
	if a != c {
		t.Fatal("client name changed the cache key")
	}
	// Defaults fill: omitted scale is the default scale.
	d := key(&serve.JobSpec{Experiment: "fig7"})
	e := key(&serve.JobSpec{Experiment: "fig7", Scale: exp.DefaultParams().Scale})
	if d != e {
		t.Fatal("explicit default scale hashed differently from omitted scale")
	}
	if d == a {
		t.Fatal("different scales collided")
	}
	// fig17 is an alias for fig16 (same runs, same table).
	f := key(&serve.JobSpec{Experiment: "fig17", Scale: 0.1})
	g := key(&serve.JobSpec{Experiment: "fig16", Scale: 0.1})
	if f != g {
		t.Fatal("fig17 did not canonicalize onto fig16")
	}
	// An empty fault schedule is identical to none.
	h := key(&serve.JobSpec{Experiment: "fig7", Scale: 0.1, Faults: &fault.Schedule{}})
	if h != a {
		t.Fatal("empty fault schedule changed the cache key")
	}

	for name, bad := range map[string]*serve.JobSpec{
		"unknown experiment": {Experiment: "fig99"},
		"missing experiment": {},
		"negative scale":     {Experiment: "fig7", Scale: -1},
		"huge scale":         {Experiment: "fig7", Scale: 1e9},
		"unknown workload":   {Experiment: "fig14", Workloads: []string{"NOPE"}},
		"negative gpus":      {Experiment: "fig19", GPUs: []int{-2}},
		"zero gpus":          {Experiment: "fig19", GPUs: []int{0}},
		"negative deglinks":  {Experiment: "degradation", DegLinks: -3},
		"bad fault kind":     {Experiment: "fig7", Faults: &fault.Schedule{Events: []fault.Event{{Kind: "meteor-strike"}}}},
		"negative fault at":  {Experiment: "fig7", Faults: &fault.Schedule{Events: []fault.Event{{At: -5, Kind: fault.LinkDown}}}},
	} {
		if err := bad.Canonicalize(); err == nil {
			t.Errorf("%s: accepted %+v", name, bad)
		}
	}
}

// TestCacheDedupe is the acceptance-criteria test: two identical job
// submissions provably share one simulation, counted by the runner.
func TestCacheDedupe(t *testing.T) {
	runner, lg := countingRunner(nil, nil)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))

	first := submitWait(t, s, spec("fig7", 0.1, "alice"))
	second := submitWait(t, s, spec("fig7", 0.1, "bob"))
	if first != second {
		t.Fatalf("cached result diverged: %q vs %q", first, second)
	}
	if got := lg.snapshot(); len(got) != 1 {
		t.Fatalf("identical jobs ran %d simulations, want 1 (%v)", len(got), got)
	}
	st := s.Stats()
	if st.SimulationsRun != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 simulation and 1 cache hit", st)
	}

	submitWait(t, s, spec("fig7", 0.2, "alice"))
	if got := lg.snapshot(); len(got) != 2 {
		t.Fatalf("distinct job did not run: %v", got)
	}
}

// TestConcurrentDedupe submits an identical spec while the first copy is
// still running; the second submission must attach to the in-flight job.
func TestConcurrentDedupe(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	runner, lg := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))

	key1, _, _, err := s.Submit(spec("fig7", 0.1, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running and will block on gate
	key2, state, reused, err := s.Submit(spec("fig7", 0.1, "bob"))
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key1 || !reused || state != serve.StateRunning {
		t.Fatalf("duplicate of a running job: key match %v, reused %v, state %q", key2 == key1, reused, state)
	}
	close(gate)
	if _, err := s.Wait(ctxT(t), key2); err != nil {
		t.Fatal(err)
	}
	if got := lg.snapshot(); len(got) != 1 {
		t.Fatalf("deduped job still ran twice: %v", got)
	}
	if st := s.Stats(); st.Deduped != 1 {
		t.Fatalf("stats = %+v, want Deduped 1", st)
	}
}

// TestQueueBackpressure fills the bounded queue and checks the next
// submission is rejected with ErrQueueFull, not silently dropped.
func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	runner, _ := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner, QueueCap: 1})
	defer func() { close(gate); s.Shutdown(ctxT(t)) }()

	if _, _, _, err := s.Submit(spec("fig7", 0.1, "a")); err != nil {
		t.Fatal(err)
	}
	<-started // running, not queued
	if _, _, _, err := s.Submit(spec("fig7", 0.2, "a")); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, _, _, err := s.Submit(spec("fig7", 0.3, "a"))
	if !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("overfull queue returned %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Queued != 1 {
		t.Fatalf("stats = %+v, want Rejected 1, Queued 1", st)
	}
}

// TestClientFairness queues two jobs from a flooding client and one from
// another; round-robin dispatch must serve the second client's first job
// before the flooder's second.
func TestClientFairness(t *testing.T) {
	gate := make(chan struct{}, 16)
	started := make(chan string, 16)
	runner, lg := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))

	// A blocker pins the dispatcher so the queue builds up behind it.
	blocker, _, _, err := s.Submit(spec("fig7", 0.9, "zed"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var keys []string
	for _, sp := range []*serve.JobSpec{
		spec("fig7", 0.11, "alice"), spec("fig7", 0.12, "alice"), spec("fig7", 0.21, "bob"),
	} {
		k, _, _, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for i := 0; i < 4; i++ {
		gate <- struct{}{}
	}
	for _, k := range append([]string{blocker}, keys...) {
		if _, err := s.Wait(ctxT(t), k); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"fig7/0.9", "fig7/0.11", "fig7/0.21", "fig7/0.12"}
	if got := lg.snapshot(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("execution order %v, want %v (bob's first job before alice's second)", got, want)
	}
}

// drain the started channel without blocking.
func drainStarted(started <-chan string) {
	for {
		select {
		case <-started:
		default:
			return
		}
	}
}

// TestDisconnectKeepsJob cancels a waiting /v1/run request mid-job; the
// job must finish anyway and its result serve the next identical request
// from cache.
func TestDisconnectKeepsJob(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	runner, lg := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqCtx, cancelReq := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(reqCtx, "POST", ts.URL+"/v1/run",
			strings.NewReader(`{"experiment":"fig7","scale":0.1}`))
		_, err := ts.Client().Do(req)
		errCh <- err
	}()
	<-started   // the job is running
	cancelReq() // the client walks away
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request did not error")
	}
	close(gate) // let the abandoned job finish

	// The finished result must be served from cache with no second run.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"experiment":"fig7","scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := "result of fig7/0.1\n"; string(body) != want {
		t.Fatalf("served %q, want %q", body, want)
	}
	if got := lg.snapshot(); len(got) != 1 {
		t.Fatalf("disconnect wasted the job: ran %v", got)
	}
	drainStarted(started)
}

// TestShutdownDrain starts a job, queues another, and shuts down: the
// in-flight job must complete and cache, the queued one must abort, and
// new submissions must be refused. The aborted job's pending entry stays,
// so the next start runs it.
func TestShutdownDrain(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan string, 8)
	runner, _ := countingRunner(gate, started)
	s := newServer(t, serve.Config{Runner: runner, QueueCap: 1, CacheDir: dir})

	running, _, _, err := s.Submit(spec("fig7", 0.1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, _, err := s.Submit(spec("fig7", 0.2, "a"))
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctxT(t)) }()
	// Hold the in-flight job until draining is observable: the queue is
	// full (cap 1), so a probe submission flips from ErrQueueFull to
	// ErrDraining the moment Shutdown has taken effect.
	deadline := time.Now().Add(testTimeout)
	for {
		_, _, _, err := s.Submit(spec("fig7", 0.3, "a"))
		if errors.Is(err, serve.ErrDraining) {
			break
		}
		if !errors.Is(err, serve.ErrQueueFull) {
			t.Fatalf("probe submission: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}

	if out, err := s.Wait(ctxT(t), running); err != nil || out == "" {
		t.Fatalf("in-flight job did not drain to completion: %q, %v", out, err)
	}
	if _, err := s.Wait(ctxT(t), queued); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("queued job should abort at shutdown, got %v", err)
	}
	if _, _, _, err := s.Submit(spec("fig7", 0.3, "a")); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-shutdown submission returned %v, want ErrDraining", err)
	}
	runner2, lg2 := countingRunner(nil, nil)
	s2 := newServer(t, serve.Config{Runner: runner2, CacheDir: dir})
	defer s2.Shutdown(ctxT(t))
	if _, err := s2.Wait(ctxT(t), queued); err != nil || strings.Join(lg2.snapshot(), " ") != "fig7/0.2" {
		t.Fatalf("restart ran %v (%v), want only the aborted fig7/0.2", lg2.snapshot(), err)
	}
}

// TestDiskCache persists a result, then proves a fresh server (a restart)
// serves it without re-running the simulation.
func TestDiskCache(t *testing.T) {
	dir := t.TempDir()
	runner1, lg1 := countingRunner(nil, nil)
	s1 := newServer(t, serve.Config{Runner: runner1, CacheDir: dir})
	want := submitWait(t, s1, spec("fig7", 0.1, "a"))
	s1.Shutdown(ctxT(t))
	if got := lg1.snapshot(); len(got) != 1 {
		t.Fatalf("first server ran %v", got)
	}

	runner2, lg2 := countingRunner(nil, nil)
	s2 := newServer(t, serve.Config{Runner: runner2, CacheDir: dir})
	defer s2.Shutdown(ctxT(t))
	got := submitWait(t, s2, spec("fig7", 0.1, "a"))
	if got != want {
		t.Fatalf("restarted server served %q, want %q", got, want)
	}
	if runs := lg2.snapshot(); len(runs) != 0 {
		t.Fatalf("restarted server re-ran the cached job: %v", runs)
	}
	if st := s2.Stats(); st.CacheHits != 1 || st.SimulationsRun != 0 {
		t.Fatalf("stats = %+v, want a pure disk cache hit", st)
	}
}

// TestDiskCorruptionCounted corrupts a persisted result and checks that a
// restarted server recomputes it and counts the quarantine once, in the
// registry: Stats reads cache_corruptions from the same counter /metrics
// exposes.
func TestDiskCorruptionCounted(t *testing.T) {
	dir := t.TempDir()
	runner1, _ := countingRunner(nil, nil)
	s1 := newServer(t, serve.Config{Runner: runner1, CacheDir: dir})
	want := submitWait(t, s1, spec("fig7", 0.1, "a"))
	s1.Shutdown(ctxT(t))

	_, key := canon(t, spec("fig7", 0.1, "a"))
	path := filepath.Join(dir, key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	runner2, lg2 := countingRunner(nil, nil)
	s2 := newServer(t, serve.Config{Runner: runner2, CacheDir: dir, Metrics: telemetry.NewRegistry()})
	defer s2.Shutdown(ctxT(t))
	if got := submitWait(t, s2, spec("fig7", 0.1, "a")); got != want || len(lg2.snapshot()) != 1 {
		t.Fatalf("corrupt entry: served %q after %d runs, want %q recomputed once", got, len(lg2.snapshot()), want)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	if st, m := s2.Stats().Corruptions, metric(t, scrape(t, ts), "memnetd_cache_corruptions_total"); st != 1 || m != 1 {
		t.Fatalf("cache_corruptions = %d, memnetd_cache_corruptions_total = %v, want 1 and 1", st, m)
	}
}

// TestFaultScheduleCanonical: an auto link-down picks its channel from a
// seed offset by its event index, so event order changes results. A
// schedule submitted out of time order must hash and render exactly as the
// same schedule loaded the CLI's way (fault.Load sorts by time), and an
// event-less schedule is no schedule whatever its seed.
func TestFaultScheduleCanonical(t *testing.T) {
	const events = `{"seed":3,"events":[` +
		`{"at_ps":90000000,"kind":"link-down","channel":-1},` +
		`{"at_ps":1000000,"kind":"link-down","channel":-1}]}`
	var permuted serve.JobSpec
	body := `{"experiment":"placement","scale":0.05,"workloads":["KMN"],"faults":` + events + `}`
	if err := json.Unmarshal([]byte(body), &permuted); err != nil {
		t.Fatal(err)
	}
	loaded, err := fault.Load(strings.NewReader(events))
	if err != nil {
		t.Fatal(err)
	}
	_, permutedKey := canon(t, &permuted)
	_, loadedKey := canon(t, &serve.JobSpec{Experiment: "placement", Scale: 0.05,
		Workloads: []string{"KMN"}, Faults: loaded})
	if permutedKey != loadedKey {
		t.Fatal("a permuted fault schedule hashed differently from the fault.Load order")
	}

	s := newServer(t, serve.Config{})
	defer s.Shutdown(ctxT(t))
	served := submitWait(t, s, &permuted)
	e, _ := exp.Find("placement")
	cli, err := e.Run(exp.Params{Scale: 0.05, Workloads: []string{"KMN"}, Env: exp.Env{Faults: loaded}})
	if err != nil {
		t.Fatal(err)
	}
	if served != cli+"\n" {
		t.Fatalf("served faulted run diverges from the CLI path:\n%s\nvs\n%s", served, cli)
	}

	// {"faults":{"seed":7}} decodes to a seeded schedule with no events.
	_, seededKey := canon(t, &serve.JobSpec{Experiment: "fig7", Faults: &fault.Schedule{Seed: 7}})
	_, plainKey := canon(t, &serve.JobSpec{Experiment: "fig7"})
	if seededKey != plainKey {
		t.Fatal("an event-less seeded schedule changed the cache key")
	}
}

// TestRegistryRunner pins the wire format against the CLI: a served
// table2 equals exp.TableII() plus the newline fmt.Println appends in
// cmd/experiments.
func TestRegistryRunner(t *testing.T) {
	s := newServer(t, serve.Config{})
	defer s.Shutdown(ctxT(t))
	got := submitWait(t, s, &serve.JobSpec{Experiment: "table2"})
	if want := exp.TableII() + "\n"; got != want {
		t.Fatalf("served table2 diverges from the registry rendering:\n%q\nvs\n%q", got, want)
	}
}

// TestProgressStream runs one real (tiny) simulation with the progress
// sink of the job's Env and checks the events endpoint replays the full
// lifecycle as JSON lines.
func TestProgressStream(t *testing.T) {
	runner := func(sp *serve.JobSpec, env exp.Env) (string, error) {
		cfg := core.DefaultConfig(core.PCIe, "VA")
		cfg.Scale = 0.05
		cfg.Progress = env.Progress
		if _, err := core.Run(cfg); err != nil {
			return "", err
		}
		return "ran\n", nil
	}
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig7","scale":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := decodeJSON(resp, &sub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctxT(t), sub.ID); err != nil {
		t.Fatal(err)
	}

	eresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(eresp.Body)
	eresp.Body.Close()
	for _, want := range []string{`"job_running"`, `"run_start"`, `"phase_start"`, `"phase_end"`, `"run_done"`, `"job_done"`, `"VA/PCIe"`} {
		if !strings.Contains(string(events), want) {
			t.Fatalf("event stream missing %s:\n%s", want, events)
		}
	}
}

// TestHTTPValidation exercises the wire-level hardening: malformed JSON,
// unknown fields, oversized bodies and unknown experiments are all 4xx.
func TestHTTPValidation(t *testing.T) {
	runner, _ := countingRunner(nil, nil)
	s := newServer(t, serve.Config{Runner: runner})
	defer s.Shutdown(ctxT(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]string{
		"malformed json":     `{"experiment":`,
		"unknown field":      `{"experiment":"fig7","bogus":1}`,
		"unknown experiment": `{"experiment":"fig99"}`,
		"trailing garbage":   `{"experiment":"fig7"} extra`,
		"wrong type":         `{"experiment":"fig7","scale":"big"}`,
		"huge body":          `{"experiment":"` + strings.Repeat("x", 2<<20) + `"}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d, want 4xx", name, resp.StatusCode)
		}
	}
	// Unknown job ids (including traversal attempts) are 404, not 500.
	for _, id := range []string{"deadbeef", strings.Repeat("a", 64), "..%2f..%2fetc%2fpasswd"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("job %q: status %d, want 404", id, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.SimulationsRun != 0 {
		t.Fatalf("invalid submissions ran simulations: %+v", st)
	}
}

func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w (body %q)", err, data)
	}
	return nil
}
