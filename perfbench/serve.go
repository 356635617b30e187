package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memnet/internal/exp"
	"memnet/internal/par"
	"memnet/internal/serve"
	"memnet/internal/telemetry"
)

const (
	// serveClients is the closed loop's client count: one connection per
	// CPU of the 2-CPU host the benchmark was sized on.
	serveClients = 2
	// blockLen is the length of a client's request block; exactly one
	// request in each block is a cold job, the rest repeat the warm set.
	blockLen = 10
	// hitSlowMS is the latency above which a cache hit counts as slow: an
	// unloaded hit takes well under a tenth of it, so a slower one waited
	// for a CPU behind a running simulation.
	hitSlowMS = 1.0
	// coldFig7 is the number of distinct cold fig7 specs; half as many
	// placement specs go with them. A run stops early if it uses them all.
	coldFig7 = 400
)

// jobSpec is a POST /v1/run body.
type jobSpec struct {
	Experiment string   `json:"experiment"`
	Scale      float64  `json:"scale,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	Client     string   `json:"client,omitempty"`
}

func (s jobSpec) key() string {
	return "serve/" + s.Experiment + "/" + strconv.FormatFloat(s.Scale, 'g', -1, 64) + "/" + strings.Join(s.Workloads, ",")
}

// reference renders the spec through the registry exactly as memnetd's
// default runner does.
func (s jobSpec) reference() ([]byte, error) {
	e, ok := exp.Find(s.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", s.Experiment)
	}
	out, err := e.Run(exp.Params{Scale: s.Scale, Workloads: s.Workloads})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.key(), err)
	}
	return []byte(out + "\n"), nil
}

// warmSpecs is the read path's working set: filled during set-up, so
// every request for it is a cache hit.
var warmSpecs = []jobSpec{
	{Experiment: "table2"},
	{Experiment: "fig12"},
	{Experiment: "fig7", Scale: 0.01},
	{Experiment: "fig7", Scale: 0.011},
	{Experiment: "placement", Scale: 0.01, Workloads: []string{"VA"}},
	{Experiment: "placement", Scale: 0.01, Workloads: []string{"BP"}},
}

// coldSpecs lists the write path's distinct specs per experiment: small
// fig7 and placement runs at scales 1e-7 apart. Each scale is its own cache
// key, so each spec is a miss, but kernel sizes are rounded to whole
// quanta, so every cold spec of one experiment simulates the same work and
// cold latency does not depend on which specs a seed draws.
func coldSpecs() [2][]jobSpec {
	var out [2][]jobSpec
	for k := 0; k < coldFig7; k++ {
		scale := float64(200000+k) / 1e7
		out[0] = append(out[0], jobSpec{Experiment: "fig7", Scale: scale})
		if k < coldFig7/2 {
			out[1] = append(out[1], jobSpec{Experiment: "placement", Scale: scale, Workloads: []string{"BP", "VA"}})
		}
	}
	return out
}

// coldOrder is the seeded order in which cold specs are used: two fig7
// specs, then one placement spec, each experiment in its own seeded order.
// An uneven mix keeps the cold median and p90 each inside one experiment's
// latency mode instead of on the edge between the two.
func coldOrder(seed int64) []jobSpec {
	specs := coldSpecs()
	a, b := shuffled(specs[0], seed), shuffled(specs[1], seed+1)
	out := make([]jobSpec, 0, len(a)+len(b))
	for i := range b {
		out = append(out, a[2*i], a[2*i+1], b[i])
	}
	return out
}

// liveServer is an in-process memnetd on an ephemeral loopback port with
// its own cache directory (so the job journal is on) and telemetry.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	dir  string
	done chan error
}

func startServer() (*liveServer, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		CacheDir: dir,
		Metrics:  telemetry.NewRegistry(),
		Logger:   telemetry.DiscardLogger(),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop drains the server, closes its listener, waits for it and removes
// its cache directory.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if e := ls.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-ls.done; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := os.RemoveAll(ls.dir); err == nil {
		err = e
	}
	return err
}

// served is one request as the client saw it.
type served struct {
	spec   jobSpec
	cold   bool
	ms     float64
	status int
	body   string // digest of the response body
	err    error
}

func post(hc *http.Client, url string, spec jobSpec) (int, []byte, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Post(url+"/v1/run", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads the server's counters: its stats and the /metrics families
// the per-layer table uses.
type scrape struct {
	stats          serve.Stats
	waitSum, waitN float64
	runSum, runN   float64
	diskWrites     float64
	busy           time.Duration
	parWidth       int
}

func (ls *liveServer) scrape(hc *http.Client) (scrape, error) {
	sc := scrape{stats: ls.srv.Stats()}
	pool := par.Stats()
	sc.busy, sc.parWidth = pool.BusyTime, pool.Width
	resp, err := hc.Get(ls.url + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return sc, err
	}
	val := func(name string) float64 {
		s, _ := telemetry.Find(samples, name)
		return s.Value
	}
	sc.waitSum, sc.waitN = val("memnetd_queue_wait_seconds_sum"), val("memnetd_queue_wait_seconds_count")
	sc.runSum, sc.runN = val("memnetd_run_seconds_sum"), val("memnetd_run_seconds_count")
	sc.diskWrites = val("memnetd_disk_cache_writes_total")
	return sc, nil
}

// runServe runs the closed loop: serveClients clients, each sending
// synchronous POST /v1/run requests in blocks of blockLen, one cold spec
// per block at a seeded position and warm-set hits for the rest, until
// o.seconds have passed (checked between blocks).
func runServe(o options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer hc.CloseIdleConnections()

	// Every round starts a fresh server and fills its warm set; the last
	// one serves the measured window.
	var started []*liveServer
	err := repeatSetup(out, tr, "serve.New + warm fill", func() error {
		ls, err := startServer()
		if err != nil {
			return err
		}
		started = append(started, ls)
		for _, s := range warmSpecs {
			if status, _, err := post(hc, ls.url, s); err != nil || status != http.StatusOK {
				return fmt.Errorf("warm fill %s: status %d, %v", s.key(), status, err)
			}
		}
		return nil
	})
	ls := started[len(started)-1]
	for _, old := range started[:len(started)-1] {
		if e := old.stop(); err == nil {
			err = e
		}
	}
	defer func() {
		if ls != nil {
			ls.stop() // error path: the run's own error is the one reported
		}
	}()
	if err != nil {
		return nil, err
	}

	before, err := ls.scrape(hc)
	if err != nil {
		return nil, err
	}
	cold := coldOrder(o.seed)
	var nextCold atomic.Int64
	results := make([][]served, serveClients)
	var wg sync.WaitGroup
	win := openWindow()
	deadline := win.start.Add(o.seconds)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed*1000 + int64(c)))
			client := fmt.Sprintf("c%d", c)
			for block := 0; block == 0 || time.Now().Before(deadline); block++ {
				coldAt := rng.Intn(blockLen)
				for i := 0; i < blockLen; i++ {
					s := served{cold: i == coldAt}
					if s.cold {
						n := nextCold.Add(1) - 1
						if n >= int64(len(cold)) {
							return
						}
						s.spec = cold[n]
					} else {
						s.spec = warmSpecs[rng.Intn(len(warmSpecs))]
					}
					s.spec.Client = client
					job := tr.begin(kindJob, s.spec.key(), 0)
					sp := tr.begin(kindRun, spanHTTP, job)
					t := time.Now()
					var body []byte
					s.status, body, s.err = post(hc, ls.url, s.spec)
					s.ms = float64(time.Since(t)) / 1e6
					tr.end(sp)
					tr.end(job)
					s.body = digest(body)
					results[c] = append(results[c], s)
				}
			}
		}(c)
	}
	wg.Wait()
	win.close(out)
	after, err := ls.scrape(hc)
	if err != nil {
		return nil, err
	}
	if err := checkServed(out, results, before, after); err != nil {
		return nil, err
	}
	err = ls.stop()
	ls = nil
	return out, err
}

// checkServed verifies every response outside the timed window — warm
// hits against the registry rendered now, cold jobs against their golden
// digests, the first cold job also against the registry — and derives the
// serving layer's metrics.
func checkServed(out *outcome, results [][]served, before, after scrape) error {
	want := map[string]string{}
	for _, s := range warmSpecs {
		ref, err := s.reference()
		if err != nil {
			return err
		}
		want[s.key()] = digest(ref)
	}
	var hits, slow int
	var hitMS, coldMS []float64
	var firstCold *served
	for _, rs := range results {
		for i := range rs {
			s := &rs[i]
			out.attempted++
			switch {
			case s.err != nil:
				out.fail("%s: %v", s.spec.key(), s.err)
				continue
			case s.status != http.StatusOK:
				out.fail("%s: HTTP %d", s.spec.key(), s.status)
				continue
			}
			out.lat = append(out.lat, jobLat{ms: s.ms, cold: s.cold})
			if s.cold {
				if firstCold == nil {
					firstCold = s
				}
				coldMS = append(coldMS, s.ms)
				checkGoldenDigest(out, s.spec.key(), s.body)
				continue
			}
			hits++
			hitMS = append(hitMS, s.ms)
			if s.ms > hitSlowMS {
				slow++
			}
			if s.body != want[s.spec.key()] {
				out.fail("%s: served bytes differ from the registry's", s.spec.key())
			}
		}
	}
	if firstCold != nil {
		ref, err := firstCold.spec.reference()
		if err != nil {
			return err
		}
		if digest(ref) != firstCold.body {
			out.fail("%s: served bytes differ from the registry's", firstCold.spec.key())
		}
	}

	d := func(a, b int64) float64 { return float64(b - a) }
	st0, st1 := before.stats, after.stats
	colds := len(out.lat) - hits
	if got := int(st1.SimulationsRun - st0.SimulationsRun); got != colds {
		out.fail("server ran %d simulations for %d cold jobs", got, colds)
	}
	if got := int(st1.CacheHits - st0.CacheHits); got != hits {
		out.fail("server counted %d cache hits for %d warm requests", got, hits)
	}
	for name, n := range map[string]int64{
		"rejected": st1.Rejected - st0.Rejected, "shed": st1.Shed - st0.Shed,
		"failed": st1.Failed - st0.Failed, "cancelled": st1.Cancelled - st0.Cancelled,
	} {
		if n != 0 {
			out.fail("server %s %d jobs", name, n)
		}
	}

	l := out.layer
	if n := len(out.lat); n > 0 {
		l["serve.hit_ratio"] = float64(hits) / float64(n)
	}
	if hits > 0 {
		l["serve.hit_slow_pct"] = 100 * float64(slow) / float64(hits)
		l["hit_p50_ms"] = percentile(hitMS, 50)
		l["hit_p90_ms"] = percentile(hitMS, 90)
		l["serve.hit_p99_ms"] = percentile(hitMS, 99)
	}
	l["cold_p50_ms"] = percentile(coldMS, 50)
	if n := after.waitN - before.waitN; n > 0 {
		l["serve.queue_wait_ms.mean"] = 1e3 * (after.waitSum - before.waitSum) / n
	}
	if n := after.runN - before.runN; n > 0 {
		l["serve.run_ms.mean"] = 1e3 * (after.runSum - before.runSum) / n
	}
	if after.parWidth > 0 && out.window > 0 {
		l["par.busy_ratio"] = float64(after.busy-before.busy) / float64(after.parWidth) / float64(out.window)
	}
	l["serve.simulations_run"] = d(st0.SimulationsRun, st1.SimulationsRun)
	l["serve.deduped"] = d(st0.Deduped, st1.Deduped)
	l["serve.rejected"] = d(st0.Rejected, st1.Rejected)
	l["serve.shed"] = d(st0.Shed, st1.Shed)
	l["cachedir.writes"] = after.diskWrites - before.diskWrites
	return nil
}
