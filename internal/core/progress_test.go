package core

import (
	"sync"
	"testing"

	"memnet/internal/obs"
)

// TestProgressEvents checks the progress hook's contract: a run with a
// sink attached emits run_start, a balanced phase_start/phase_end pair
// per phase in order, and run_done — and reports exactly the figures of
// a plain run (the hook fires between engine events only).
func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var evs []obs.ProgressEvent
	cfg := tiny(PCIe, "VA")
	cfg.Progress = func(ev obs.ProgressEvent) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	}
	res := mustRun(t, cfg)

	if len(evs) < 4 {
		t.Fatalf("want at least run_start + one phase pair + run_done, got %d events: %+v", len(evs), evs)
	}
	if evs[0].Event != obs.ProgressRunStart {
		t.Fatalf("first event = %q, want %q", evs[0].Event, obs.ProgressRunStart)
	}
	last := evs[len(evs)-1]
	if last.Event != obs.ProgressRunDone {
		t.Fatalf("last event = %q, want %q", last.Event, obs.ProgressRunDone)
	}
	if last.At != res.Total {
		t.Fatalf("run_done at %d ps, want the run's total %d ps", last.At, res.Total)
	}
	wantLabel := "VA/PCIe"
	var open []string
	phases := 0
	for _, ev := range evs {
		if ev.Run != wantLabel {
			t.Fatalf("event labeled %q, want %q", ev.Run, wantLabel)
		}
		switch ev.Event {
		case obs.ProgressPhaseStart:
			open = append(open, ev.Phase)
		case obs.ProgressPhaseEnd:
			if len(open) == 0 || open[len(open)-1] != ev.Phase {
				t.Fatalf("phase_end %q without matching phase_start (open: %v)", ev.Phase, open)
			}
			open = open[:len(open)-1]
			phases++
		}
	}
	if len(open) != 0 {
		t.Fatalf("unbalanced phases still open: %v", open)
	}
	// PCIe/VA copies in, runs the kernel, copies out.
	if phases != 3 {
		t.Fatalf("got %d phases, want 3 (h2d, kernel, d2h)", phases)
	}

	plain := mustRun(t, tiny(PCIe, "VA"))
	if res.Total != plain.Total || res.Kernel != plain.Kernel || res.H2D != plain.H2D || res.D2H != plain.D2H {
		t.Fatalf("progress-observed run diverges: %+v vs %+v", res, plain)
	}
}
