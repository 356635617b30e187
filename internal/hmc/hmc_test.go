package hmc

import (
	"strings"
	"testing"

	"memnet/internal/audit"
	"memnet/internal/mem"
	"memnet/internal/obs"
	"memnet/internal/sim"
)

func newHMC(t *testing.T, mut func(*Config)) (*sim.Engine, *HMC) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	h, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hand each completed request to its own Done, if it has one.
	h.Respond = func(r *mem.Req) {
		if r.Done != nil {
			r.Done(r)
		}
	}
	return eng, h
}

func TestSingleReadCompletes(t *testing.T) {
	eng, h := newHMC(t, nil)
	var doneAt sim.Time
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 3, Bank: 2, Row: 7},
		Done: func(*mem.Req) { doneAt = eng.Now() }})
	eng.Run()
	// Closed bank read: tRCD + tCL + burst = (11+11+4)*1.25ns = 32.5ns.
	want := sim.Time(26) * 1250
	if doneAt != want {
		t.Fatalf("read done at %d ps, want %d", doneAt, want)
	}
	if h.Stats.Reads.Value() != 1 || h.Stats.RowMisses.Value() != 1 {
		t.Fatal("stats miscounted")
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	eng, h := newHMC(t, nil)
	var t1, t2, t3 sim.Time
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: 5}, Done: func(*mem.Req) { t1 = eng.Now() }})
	eng.Run()
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: 5}, Done: func(*mem.Req) { t2 = eng.Now() }})
	eng.Run()
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: 9}, Done: func(*mem.Req) { t3 = eng.Now() }})
	eng.Run()
	hitLat := t2 - t1
	missLat := t3 - t2
	if hitLat >= missLat {
		t.Fatalf("row hit latency %d not below conflict latency %d", hitLat, missLat)
	}
	if h.Stats.RowHits.Value() != 1 {
		t.Fatalf("row hits = %d, want 1", h.Stats.RowHits.Value())
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	eng, h := newHMC(t, nil)
	var order []int64
	mk := func(row int64) *mem.Req {
		return &mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: row},
			Done: func(r *mem.Req) { order = append(order, r.Loc.Row) }}
	}
	// Open row 1 first.
	h.Submit(mk(1))
	eng.Run()
	// Queue: conflict (row 2) ahead of a row hit (row 1). FR-FCFS should
	// reorder; FCFS would not.
	h.Submit(mk(2))
	h.Submit(mk(1))
	eng.Run()
	if len(order) != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order = %v, want [1 1 2]", order)
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	eng, h := newHMC(t, func(c *Config) { c.Scheduler = FCFS })
	var order []int64
	mk := func(row int64) *mem.Req {
		return &mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: row},
			Done: func(r *mem.Req) { order = append(order, r.Loc.Row) }}
	}
	h.Submit(mk(1))
	eng.Run()
	h.Submit(mk(2))
	h.Submit(mk(1))
	eng.Run()
	if len(order) != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("completion order = %v, want [1 2 1]", order)
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	// N reads over N banks must finish much faster than N reads to rows
	// that conflict in one bank: the effect behind Fig. 7(b).
	run := func(spread bool) sim.Time {
		eng, h := newHMC(t, nil)
		remaining := 8
		for i := 0; i < 8; i++ {
			loc := mem.Loc{Vault: 0, Bank: 0, Row: int64(i)}
			if spread {
				loc = mem.Loc{Vault: 0, Bank: i, Row: 0}
			}
			h.Submit(&mem.Req{Loc: loc, Done: func(*mem.Req) { remaining-- }})
		}
		eng.Run()
		if remaining != 0 {
			t.Fatal("requests lost")
		}
		return eng.Now()
	}
	serial := run(false)
	parallel := run(true)
	if parallel*2 >= serial {
		t.Fatalf("bank-parallel %d ps not ≪ serial %d ps", parallel, serial)
	}
}

func TestVaultParallelism(t *testing.T) {
	run := func(vaults int) sim.Time {
		eng, h := newHMC(t, nil)
		for i := 0; i < 16; i++ {
			h.Submit(&mem.Req{Loc: mem.Loc{Vault: i % vaults, Bank: 0, Row: int64(i)}})
		}
		eng.Run()
		return eng.Now()
	}
	if run(16) >= run(1) {
		t.Fatal("spreading across vaults must reduce completion time")
	}
}

func TestAtomicSlowerThanWrite(t *testing.T) {
	eng, h := newHMC(t, nil)
	var wDone, aDone sim.Time
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: 1}, Write: true,
		Done: func(*mem.Req) { wDone = eng.Now() }})
	eng.Run()
	base := eng.Now()
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 1, Bank: 0, Row: 1}, Atomic: true,
		Done: func(*mem.Req) { aDone = eng.Now() }})
	eng.Run()
	if aDone-base <= wDone {
		t.Fatalf("atomic latency %d not above write latency %d", aDone-base, wDone)
	}
	if h.Stats.Atomics.Value() != 1 {
		t.Fatal("atomic not counted")
	}
}

func TestQueueWaitGrowsUnderLoad(t *testing.T) {
	eng, h := newHMC(t, nil)
	for i := 0; i < 64; i++ {
		h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: int64(i)}})
	}
	if h.QueuedRequests() == 0 {
		t.Fatal("queue should be non-empty before run")
	}
	eng.Run()
	if h.QueuedRequests() != 0 {
		t.Fatal("queue should drain")
	}
	if h.Stats.QueueWait.Max() <= h.Stats.QueueWait.Min() {
		t.Fatal("later requests should wait longer than earlier ones")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(sim.NewEngine(), Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestOutOfRangeVaultPanics(t *testing.T) {
	_, h := newHMC(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vault did not panic")
		}
	}()
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 99}})
}

func TestRefreshBlocksVaultAndClosesRows(t *testing.T) {
	eng, h := newHMC(t, func(c *Config) {
		c.RefreshInterval = 1 * sim.Microsecond
		c.RefreshLatency = 200 * sim.Nanosecond
	})
	// Warm a row, then request again after the refresh point: the row
	// must be closed (refresh precharged it) and service delayed.
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: 3}})
	eng.Run()
	var done sim.Time
	eng.At(1100*sim.Nanosecond, func() {
		h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: 0, Row: 3},
			Done: func(*mem.Req) { done = eng.Now() }})
	})
	eng.Run()
	if h.Stats.Refreshes.Value() == 0 {
		t.Fatal("no refresh cycles recorded")
	}
	// Post-refresh access: activation required again (row miss).
	if h.Stats.RowMisses.Value() != 2 {
		t.Fatalf("row misses = %d, want 2 (refresh closed the row)", h.Stats.RowMisses.Value())
	}
	// Blocked until refresh completed (1us boundary + 200ns) + activate+read.
	if done < 1200*sim.Nanosecond {
		t.Fatalf("post-refresh access done at %d, want >= refresh end", done)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	eng, h := newHMC(t, nil)
	for i := 0; i < 4; i++ {
		h.Submit(&mem.Req{Loc: mem.Loc{Vault: 0, Bank: i, Row: 1}})
	}
	eng.Run()
	if h.Stats.Refreshes.Value() != 0 {
		t.Fatal("refresh ran despite being disabled (Table I default)")
	}
}

func TestRequestConservationAudit(t *testing.T) {
	eng, h := newHMC(t, nil)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	h.Instrument(obs.Probe{Audit: reg}, "hmc0")
	completed := 0
	for i := 0; i < 200; i++ {
		h.Submit(&mem.Req{
			Loc:    mem.Loc{Vault: i % 16, Bank: (i / 3) % 16, Row: int64(i % 7)},
			Write:  i%4 == 1,
			Atomic: i%9 == 2,
			Done:   func(*mem.Req) { completed++ },
		})
	}
	// Mid-flight: requests split across queued / in-service / completed, but
	// the ledger must still balance at any event boundary.
	eng.At(40*sim.Nanosecond+3, func() {
		if reg.Check() != 0 {
			t.Errorf("mid-flight violations: %v", reg.Violations())
		}
	})
	eng.Run()
	if completed != 200 {
		t.Fatalf("completed %d of 200 requests", completed)
	}
	if reg.Check() != 0 {
		t.Fatalf("drained cube reported violations: %v", reg.Violations())
	}
	// A lost completion breaks conservation: one more request submitted
	// than completed, queued or in service.
	h.Stats.Reads.Inc()
	if reg.Check() == 0 {
		t.Fatal("lost completion not detected")
	}
	h.Stats.Reads.Add(-1)
	reg.Reset()
	// Bank FSM violations surface with vault/bank coordinates.
	tm := h.cfg.Timing
	h.vaults[2].banks[5].ColumnAt(0, 99, false, &tm, 0)
	if reg.Check() == 0 {
		t.Fatal("bank FSM violation not surfaced through the cube audit")
	}
	found := false
	for _, v := range reg.Violations() {
		if strings.Contains(v.Msg, "vault 2 bank 5") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violation lacks vault/bank coordinates: %v", reg.Violations())
	}
}

func TestFailedVaultDrainsAndRejects(t *testing.T) {
	eng, h := newHMC(t, nil)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	h.Instrument(obs.Probe{Audit: reg}, "hmc0")
	completed := 0
	if !h.Submit(&mem.Req{Loc: mem.Loc{Vault: 2, Bank: 0, Row: 1},
		Done: func(*mem.Req) { completed++ }}) {
		t.Fatal("healthy vault rejected a request")
	}
	h.FailVault(2)
	if !h.VaultFailed(2) || h.VaultFailed(3) {
		t.Fatal("vault fail-stop flags wrong")
	}
	if h.Submit(&mem.Req{Loc: mem.Loc{Vault: 2, Bank: 1, Row: 1}}) {
		t.Fatal("failed vault accepted a new request")
	}
	if !h.Submit(&mem.Req{Loc: mem.Loc{Vault: 3, Bank: 0, Row: 1},
		Done: func(*mem.Req) { completed++ }}) {
		t.Fatal("healthy vault rejected a request after another vault failed")
	}
	h.FailVault(2) // idempotent
	eng.Run()
	// The in-service request drains; the rejected one never completes.
	if completed != 2 {
		t.Fatalf("completed = %d, want 2 (in-flight drained + healthy vault)", completed)
	}
	if h.Stats.Rejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", h.Stats.Rejected.Value())
	}
	if reg.Check() != 0 {
		t.Fatalf("audit violations after vault failure: %v", reg.Violations())
	}
}

// TestBanksBuiltOnFirstSubmit checks that a vault holds no DRAM banks until
// a request reaches it, that a failed vault's rejection builds none, and
// that the audit drains bank violations from the vaults that have banks.
func TestBanksBuiltOnFirstSubmit(t *testing.T) {
	eng, h := newHMC(t, nil)
	reg := audit.New(func() int64 { return int64(eng.Now()) })
	h.Instrument(obs.Probe{Audit: reg}, "hmc0")
	for vi := range h.vaults {
		if h.vaults[vi].banks != nil {
			t.Fatalf("vault %d holds banks before any request", vi)
		}
	}
	h.FailVault(5)
	if h.Submit(&mem.Req{Loc: mem.Loc{Vault: 5, Bank: 0, Row: 1}}) {
		t.Fatal("failed vault accepted a request")
	}
	h.Submit(&mem.Req{Loc: mem.Loc{Vault: 3, Bank: 1, Row: 4}})
	eng.Run()
	for vi := range h.vaults {
		want := 0
		if vi == 3 {
			want = h.cfg.BanksPerVault
		}
		if got := len(h.vaults[vi].banks); got != want {
			t.Fatalf("vault %d holds %d banks, want %d", vi, got, want)
		}
	}
	if row := h.vaults[3].banks[1].OpenRow(); row != 4 {
		t.Fatalf("vault 3 bank 1 has row %d open, want 4", row)
	}
	if reg.Check() != 0 {
		t.Fatalf("violations on a clean cube: %v", reg.Violations())
	}
	tm := h.cfg.Timing
	h.vaults[3].banks[2].PrechargeAt(eng.Now(), &tm) // PRE to a closed bank
	if reg.Check() != 1 || !strings.Contains(reg.Violations()[0].Msg, "vault 3 bank 2") {
		t.Fatalf("bank violation not drained with its coordinates: %v", reg.Violations())
	}
	reg.Reset()
	if reg.Check() != 0 {
		t.Fatalf("violation reported twice: %v", reg.Violations())
	}
}
