package memnet_test

import (
	"testing"

	"memnet"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := memnet.DefaultConfig(memnet.UMN, "VA")
	cfg.Scale = 0.05
	res, err := memnet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arch != "UMN" || res.Workload != "VA" {
		t.Fatalf("result identity wrong: %+v", res)
	}
	if res.Total <= 0 || res.Kernel <= 0 {
		t.Fatal("empty runtimes")
	}
}

func TestPublicParsers(t *testing.T) {
	for _, a := range memnet.Architectures() {
		got, err := memnet.ParseArch(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseArch(%q) = %v, %v", a.String(), got, err)
		}
	}
	if k, err := memnet.ParseTopo("sFBFLY"); err != nil || k != memnet.TopoSFBFLY {
		t.Fatalf("ParseTopo(sFBFLY) = %v, %v", k, err)
	}
}

func TestWorkloadsListedAndRunnable(t *testing.T) {
	names := memnet.Workloads()
	if len(names) != 15 {
		t.Fatalf("Workloads() returned %d names, want 15 (Table II + VA)", len(names))
	}
	// One cheap smoke per workload on the fastest architecture.
	for _, wl := range names {
		cfg := memnet.DefaultConfig(memnet.UMN, wl)
		cfg.Scale = 0.05
		cfg.GPU.Cores = 8
		res, err := memnet.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Kernel <= 0 {
			t.Fatalf("%s: no kernel time", wl)
		}
	}
}
