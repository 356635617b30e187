package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memnet/internal/fault"
	"memnet/internal/noc"
	"memnet/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/nocpaths.golden")

// nocPathPoint is one design point pinned by TestNocPathsGolden. faulted
// points must also show that their schedule really retransmitted flits and
// failed a link, so the golden keeps covering those paths.
type nocPathPoint struct {
	name    string
	cfg     Config
	faulted bool
}

// nocPathPoints are design points whose network paths the Fig. 14 sweep
// never drives: UGAL with adaptive port selection, the doubled sliced mesh
// and torus, overlay pass-through, and link retransmission plus rerouting
// under faults. The faulted overlay point's transients sit on pass-through
// chain channels, so a replayed express packet's backed-up flits arrive
// together and queue on the next chain channel (the express hold queue).
func nocPathPoints() []nocPathPoint {
	point := func(arch Arch, wl string) Config {
		cfg := DefaultConfig(arch, wl)
		cfg.Scale = 0.02
		return cfg
	}
	ugal := point(GMN, "CG.S")
	ugal.Topo = noc.TopoDFBFLY
	ugal.UGAL, ugal.Adaptive = true, true
	mesh := point(GMN, "BP")
	mesh.Topo, mesh.TopoMultiplier = noc.TopoSMESH, 2
	torus := point(GMN, "BP")
	torus.Topo, torus.TopoMultiplier = noc.TopoSTORUS, 2
	overlay := point(UMN, "CG.S")
	overlay.NumGPUs = 3
	overlay.Overlay = true
	gmnFaults := point(GMN, "BP")
	gmnFaults.FaultRates = fault.Rates{Seed: 5, Horizon: 20 * sim.Microsecond,
		Transients: 8, MaxBurst: 3, FailLinks: 1}
	overlayFaults := overlay
	overlayFaults.Faults = &fault.Schedule{Seed: 3, Events: []fault.Event{
		{At: 2 * sim.Microsecond, Kind: fault.Transient, Channel: 52, Attempts: 4},
		{At: 5 * sim.Microsecond, Kind: fault.LinkDown, Channel: -1},
		{At: 9 * sim.Microsecond, Kind: fault.Transient, Channel: 81, Attempts: 4},
	}}
	return []nocPathPoint{
		{name: "fig15-ugal-dFBFLY-CG.S", cfg: ugal},
		{name: "fig16-sMESH-2x-BP", cfg: mesh},
		{name: "fig16-sTORUS-2x-BP", cfg: torus},
		{name: "fig18-overlay-CG.S", cfg: overlay},
		{name: "gmn-faults-BP", cfg: gmnFaults, faulted: true},
		{name: "fig18-overlay-faults-CG.S", cfg: overlayFaults, faulted: true},
	}
}

// TestNocPathsGolden pins the SHA-256 of json.Marshal(Result) for each
// point in nocPathPoints against testdata/nocpaths.golden, so a change to
// how the network steps that alters any result on these paths fails here.
// Run `go test ./internal/core -run NocPaths -update` to regenerate after
// an intentional model change.
func TestNocPathsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, p := range nocPathPoints() {
		s, err := NewSystem(p.cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		res, err := s.Execute()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if p.faulted && (s.net.LinkRetries() == 0 || len(s.net.FailedChannels()) == 0) {
			t.Fatalf("%s: schedule no longer exercises faults (%d retries, %d failed channels)",
				p.name, s.net.LinkRetries(), len(s.net.FailedChannels()))
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", p.name, sha256.Sum256(js))
	}
	golden := filepath.Join("testdata", "nocpaths.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run NocPaths -update` to regenerate)", err)
	}
	wantSum := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			wantSum[name] = sum
		}
	}
	sc = bufio.NewScanner(&got)
	for sc.Scan() {
		name, sum, _ := strings.Cut(sc.Text(), " ")
		if wantSum[name] != sum {
			t.Errorf("%s: result hash %s, golden %q", name, sum, wantSum[name])
		}
		delete(wantSum, name)
	}
	for name := range wantSum {
		t.Errorf("golden point %s is no longer run", name)
	}
}
