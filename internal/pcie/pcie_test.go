package pcie

import (
	"testing"

	"memnet/internal/audit"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

func newFabric(t *testing.T, eps int) (*sim.Engine, *Fabric, []int) {
	t.Helper()
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig())
	ids := make([]int, eps)
	for i := range ids {
		ids[i] = f.AddEndpoint("ep")
	}
	return eng, f, ids
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	var doneAt sim.Time
	var n int64 = 64 << 20 // 64 MB
	f.Send(ids[0], ids[1], n, func() { doneAt = eng.Now() })
	eng.Run()
	// 64MB at 15.75 GB/s ~= 4.26 ms, plus ~10% TLP overhead.
	min := sim.Time(float64(int64(n)) / 15.75e9 * 1e12)
	max := min + min/8 + sim.Time(2*sim.Microsecond)
	if doneAt < min || doneAt > max {
		t.Fatalf("64MB transfer took %d ps, want in [%d, %d]", doneAt, min, max)
	}
}

func TestSmallTransferDominatedByLatency(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	var doneAt sim.Time
	f.Send(ids[0], ids[1], 128, func() { doneAt = eng.Now() })
	eng.Run()
	cfg := DefaultConfig()
	if doneAt < cfg.Latency+cfg.SwitchLatency {
		t.Fatalf("latency %d below propagation floor", doneAt)
	}
	if doneAt > cfg.Latency+cfg.SwitchLatency+sim.Time(100*sim.Nanosecond) {
		t.Fatalf("small transfer too slow: %d ps", doneAt)
	}
}

func TestSameLinkSerializes(t *testing.T) {
	eng, f, ids := newFabric(t, 3)
	var t1, t2 sim.Time
	const n = 1 << 20
	f.Send(ids[0], ids[1], n, func() { t1 = eng.Now() })
	f.Send(ids[0], ids[2], n, func() { t2 = eng.Now() }) // shares 0's uplink
	eng.Run()
	ser := t1 - DefaultConfig().Latency - DefaultConfig().SwitchLatency
	if t2-t1 < ser/2 {
		t.Fatalf("second transfer (%d) not serialized behind first (%d)", t2, t1)
	}
}

func TestDisjointLinksParallel(t *testing.T) {
	eng, f, ids := newFabric(t, 4)
	var t1, t2 sim.Time
	const n = 1 << 20
	f.Send(ids[0], ids[1], n, func() { t1 = eng.Now() })
	f.Send(ids[2], ids[3], n, func() { t2 = eng.Now() })
	eng.Run()
	if t1 != t2 {
		t.Fatalf("disjoint transfers should complete together: %d vs %d", t1, t2)
	}
}

func TestRoundTripVisitsRemote(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	var served bool
	var doneAt sim.Time
	f.RoundTrip(ids[0], ids[1], 32, 128, func(done func()) {
		served = true
		eng.After(10*sim.Nanosecond, done) // remote memory access time
	}, func() { doneAt = eng.Now() })
	eng.Run()
	if !served {
		t.Fatal("service callback never ran")
	}
	// Two propagation delays plus remote service.
	min := 2*(DefaultConfig().Latency+DefaultConfig().SwitchLatency) + 10*sim.Nanosecond
	if doneAt < min {
		t.Fatalf("round trip %d ps below floor %d", doneAt, min)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	f.Send(ids[0], ids[1], 1000, nil)
	eng.Run()
	if f.Stats.Transfers.Value() != 1 || f.Stats.Bytes.Value() != 1000 {
		t.Fatal("transfer stats wrong")
	}
	if f.Stats.WireBytes.Value() <= 1000 {
		t.Fatal("wire bytes must include TLP headers")
	}
}

func TestBadEndpointsPanic(t *testing.T) {
	_, f, ids := newFabric(t, 2)
	for _, fn := range []func(){
		func() { f.Send(ids[0], ids[0], 10, nil) },
		func() { f.Send(ids[0], 99, 10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestZeroByteTransferCompletesImmediately(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	var doneAt sim.Time
	f.Send(ids[0], ids[1], 0, func() { doneAt = eng.Now() })
	eng.Run()
	want := DefaultConfig().Latency + DefaultConfig().SwitchLatency
	if doneAt != want {
		t.Fatalf("zero-byte transfer at %d, want %d", doneAt, want)
	}
}

func TestRoundTripLedgerBalances(t *testing.T) {
	eng, f, ids := newFabric(t, 3)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	f.Instrument(obs.Probe{Audit: reg})
	served := 0
	completions := 0
	for i := 0; i < 8; i++ {
		dst := ids[1+i%2]
		done := func() { completions++ }
		if i%3 == 0 {
			done = nil // fire-and-forget writes carry no completion
		}
		f.RoundTrip(ids[0], dst, 96, 160, func(fin func()) {
			served++
			eng.After(50*sim.Nanosecond, fin)
		}, done)
	}
	if f.OpenRoundTrips() != 8 {
		t.Fatalf("open round trips = %d before running, want 8", f.OpenRoundTrips())
	}
	eng.Run()
	if served != 8 {
		t.Fatalf("service ran %d times, want 8", served)
	}
	if completions != 5 {
		t.Fatalf("completions = %d, want 5 (3 were fire-and-forget)", completions)
	}
	if f.OpenRoundTrips() != 0 {
		t.Fatalf("open round trips = %d after drain, want 0 (unpaired request)", f.OpenRoundTrips())
	}
	if reg.Check() != 0 {
		t.Fatalf("clean fabric reported violations: %v", reg.Violations())
	}
	// A double-sent response drives the ledger negative; the audit flags it.
	f.rtOpen = -1
	if reg.Check() == 0 {
		t.Fatal("negative ledger not detected")
	}
}

func TestInjectedTimeoutRetriesWithBackoff(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	f.InjectTimeout(ids[0], 2)
	done := 0
	var doneAt sim.Time
	f.Send(ids[0], ids[1], 128, func() { done++; doneAt = eng.Now() })
	eng.Run()
	if done != 1 {
		t.Fatalf("done fired %d times, want exactly 1", done)
	}
	if f.Stats.Timeouts.Value() != 2 || f.Stats.Retries.Value() != 2 {
		t.Fatalf("timeouts/retries = %d/%d, want 2/2",
			f.Stats.Timeouts.Value(), f.Stats.Retries.Value())
	}
	if f.retryOpen != 0 {
		t.Fatalf("retry ledger did not drain: %d", f.retryOpen)
	}
	// Two backoff waits (T, then 2T) precede the attempt that succeeds.
	cfg := DefaultConfig()
	floor := 3*cfg.RetryTimeout + cfg.Latency + cfg.SwitchLatency
	if doneAt < floor {
		t.Fatalf("retried transfer done at %d ps, before backoff floor %d", doneAt, floor)
	}
}

func TestTimeoutRetryExhaustionForcesThrough(t *testing.T) {
	eng, f, ids := newFabric(t, 2)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	f.Instrument(obs.Probe{Audit: reg})
	f.InjectTimeout(ids[0], 100) // far beyond the retry budget
	done := 0
	f.Send(ids[0], ids[1], 128, func() { done++ })
	eng.Run()
	if done != 1 {
		t.Fatal("exhausted transfer never completed (retry livelock)")
	}
	limit := int64(DefaultConfig().RetryLimit)
	if f.Stats.Retries.Value() != limit || f.Stats.RetriesExhausted.Value() != 1 {
		t.Fatalf("retries/exhausted = %d/%d, want %d/1",
			f.Stats.Retries.Value(), f.Stats.RetriesExhausted.Value(), limit)
	}
	if f.ports[ids[0]].dropNext != 0 {
		t.Fatalf("exhaustion left %d drops armed", f.ports[ids[0]].dropNext)
	}
	if reg.Check() != 0 {
		t.Fatalf("audit violations after exhaustion: %v", reg.Violations())
	}
	// The fault is spent: the next transfer passes untouched.
	f.Send(ids[0], ids[1], 128, func() { done++ })
	eng.Run()
	if done != 2 || f.Stats.Timeouts.Value() != limit {
		t.Fatal("endpoint did not recover after retry exhaustion")
	}
}
