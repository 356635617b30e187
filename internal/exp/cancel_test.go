package exp

import (
	"errors"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
)

// TestSweepCancellation checks that an Env's stop latch tears down a whole
// experiment fan-out: every run polls the latch between engine events (the
// degradation sweep checks it before each load point), the pool surfaces
// the lowest-indexed run's error, and the %w wrapping keeps
// core.ErrStopped visible through errors.Is at the registry boundary.
func TestSweepCancellation(t *testing.T) {
	stop := &sim.Stop{}
	stop.Trip("cancelled by test")

	for _, name := range []string{"fig7", "fig14", "degradation"} {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("experiment %q missing from the registry", name)
		}
		p := DefaultParams()
		p.Scale = 0.05
		p.Workloads = []string{"BP"}
		p.Env.Stop = stop
		if _, err := e.Run(p); !errors.Is(err, core.ErrStopped) {
			t.Fatalf("%s under a tripped latch returned %v, want core.ErrStopped", name, err)
		}
	}

	// The latch belongs to that Env only: a plain run still completes.
	e, _ := Find("fig7")
	if _, err := e.Run(Params{Scale: 0.05}); err != nil {
		t.Fatalf("fig7 without the latch failed: %v", err)
	}
}
