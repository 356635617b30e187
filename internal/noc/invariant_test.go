package noc

import (
	"math/rand"
	"testing"

	"memnet/internal/sim"
)

// TestCreditConservation drives heavy mixed traffic (including overlay
// express packets) and verifies that after the network quiesces, every
// output port's credit counters are back at their initial values — i.e.
// no credit was leaked or double-returned anywhere.
func TestCreditConservation(t *testing.T) {
	for _, overlay := range []bool{false, true} {
		eng := sim.NewEngine()
		spec := spec4x4(TopoSFBFLY)
		if overlay {
			spec.CPUCluster = 0
			spec.Overlay = true
		}
		b, err := BuildTopology(eng, DefaultConfig(), spec)
		if err != nil {
			t.Fatal(err)
		}
		newEcho(b, 9)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 600; i++ {
			src := rng.Intn(4)
			req := b.Net.NewRequest(b.Terms[src], rng.Intn(16), 1+8*rng.Intn(2))
			req.PassThrough = overlay && src == 0
			at := sim.Time(rng.Intn(1500)) * sim.Nanosecond
			eng.At(at, func() { b.Net.Send(req) })
		}
		eng.Run()
		if !b.Net.Quiescent() {
			t.Fatalf("overlay=%v: not quiescent", overlay)
		}
		cfg := b.Net.Config()
		for r := 0; r < b.Net.NumRouters(); r++ {
			router := b.Net.Router(r)
			for pi, op := range router.out {
				for vc, cr := range op.credits {
					want := cfg.BufFlitsPerVC
					if cr != want {
						t.Fatalf("overlay=%v: router %d port %d vc %d credits %d, want %d (leak)",
							overlay, r, pi, vc, cr, want)
					}
				}
				for vc, busy := range op.vcBusy {
					if busy {
						t.Fatalf("overlay=%v: router %d port %d vc %d still allocated", overlay, r, pi, vc)
					}
				}
			}
		}
		// Terminal injection credits restored too.
		for ti := 0; ti < b.Net.NumTerminals(); ti++ {
			term := b.Net.Terminal(ti)
			for pi, p := range term.ports {
				for vc, cr := range p.credits {
					if cr != cfg.BufFlitsPerVC {
						t.Fatalf("overlay=%v: terminal %d port %d vc %d credits %d, want %d",
							overlay, ti, pi, vc, cr, cfg.BufFlitsPerVC)
					}
				}
			}
		}
	}
}

// TestNoResidualBufferedFlits verifies all router buffers and channel
// queues are empty after the traffic drains.
func TestNoResidualBufferedFlits(t *testing.T) {
	b, _, _ := randomTraffic(t, TopoDFBFLY, 300, true, true)
	for _, r := range b.Net.routers {
		for _, p := range r.allPorts() {
			for vi := range p.vcs {
				if p.vcs[vi].flits != 0 || !p.vcs[vi].q.Empty() {
					t.Fatalf("router %d holds %d stale flits", r.id, p.vcs[vi].flits)
				}
				if p.vcs[vi].active {
					t.Fatalf("router %d has an active VC after drain", r.id)
				}
			}
		}
	}
	for _, c := range b.Net.channels {
		if c.fifo.Len() != 0 || c.holdQ.Len() != 0 || c.expressing != 0 {
			t.Fatalf("channel %d holds stale state", c.index)
		}
	}
}
