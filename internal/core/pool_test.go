package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestPacketPoolDoesNotChangeResults pins the packet-pool recycling
// contract: Release runs in both modes and Send assigns IDs from the same
// counter, so reusing packet memory must not perturb a single simulated
// cycle. The matrix is Fig. 7's six configurations plus BP and BFS on
// every architecture, at scale 0.05.
func TestPacketPoolDoesNotChangeResults(t *testing.T) {
	var cfgs []Config
	for _, arch := range []Arch{PCIe, GMN} {
		for _, k := range []int{1, 2, 4} {
			cfg := DefaultConfig(arch, "VA")
			cfg.ExecGPUs = 1
			cfg.DataClusters = []int{0, 1, 2, 3}[:k]
			if arch == PCIe {
				cfg.PCIe.BytesPerSec = 8e9 // the Fig. 7a machine is PCIe v2
			}
			cfgs = append(cfgs, cfg)
		}
	}
	for _, wl := range []string{"BP", "BFS"} {
		for _, arch := range Architectures() {
			cfgs = append(cfgs, DefaultConfig(arch, wl))
		}
	}
	for _, cfg := range cfgs {
		cfg.Scale = 0.05
		name := fmt.Sprintf("%s/%s", cfg.Workload, cfg.Arch)
		if k := len(cfg.DataClusters); k > 0 {
			name += fmt.Sprintf(" (data on %d GPUs)", k)
		}
		run := func(noPool bool) (*Result, []byte) {
			c := cfg
			c.Net.NoPacketPool = noPool
			res := mustRun(t, c)
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res, data
		}
		pooled, pooledJSON := run(false)
		bare, bareJSON := run(true)
		if !bytes.Equal(pooledJSON, bareJSON) {
			t.Errorf("%s: results differ with pooling off:\npooled %s\nbare   %s", name, pooledJSON, bareJSON)
		}
		// The traffic matrix has no exported fields, so JSON skips it.
		if !reflect.DeepEqual(pooled.Traffic, bare.Traffic) {
			t.Errorf("%s: traffic matrix differs with pooling off", name)
		}
	}
}
