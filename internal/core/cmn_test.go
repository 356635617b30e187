package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCMNMemcpyDeterministic runs one CMN design point repeatedly: the
// analytic CMN memcpy sums per-cluster transfer times, and float addition
// in map iteration order used to move Total by a picosecond between
// identical runs.
func TestCMNMemcpyDeterministic(t *testing.T) {
	cfg := DefaultConfig(CMN, "SRAD")
	cfg.Scale = 0.02
	var first []byte
	for i := 0; i < 12; i++ {
		js, err := json.Marshal(mustRun(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = js
		} else if !bytes.Equal(js, first) {
			t.Fatalf("run %d differs from run 0:\n%s\n%s", i, js, first)
		}
	}
}
