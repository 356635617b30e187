package noc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestDumpStateMidFlight freezes a simulation with flits in the network and
// checks the diagnostic dump names every router and the in-flight flit
// count — the information needed to localize a stalled simulation.
func TestDumpStateMidFlight(t *testing.T) {
	eng, b := build(t, spec4x4(TopoSFBFLY))
	n := b.Net
	newEcho(b, 4)

	n.Send(n.NewRequest(b.Terms[0], b.Routers[1][0], 5))
	for n.flitsInjected == n.flitsRetired {
		if !eng.Step() {
			t.Fatal("network drained before any flit was in flight")
		}
	}
	inflight := n.flitsInjected - n.flitsRetired
	if inflight <= 0 {
		t.Fatalf("inflight = %d, want > 0", inflight)
	}

	var buf bytes.Buffer
	n.DumpState(&buf)
	out := buf.String()
	for r := 0; r < n.NumRouters(); r++ {
		if want := fmt.Sprintf("router %d: buffered=", r); !strings.Contains(out, want) {
			t.Errorf("dump does not mention router %d (want %q)", r, want)
		}
	}
	if want := fmt.Sprintf("inflight=%d", inflight); !strings.Contains(out, want) {
		t.Errorf("dump missing in-flight flit count %q:\n%s", want, out)
	}

	// Drain so the run ends clean (the echo harness answers the request).
	eng.Run()
	if n.flitsInjected != n.flitsRetired {
		t.Fatalf("flits leaked: injected %d retired %d", n.flitsInjected, n.flitsRetired)
	}
}
