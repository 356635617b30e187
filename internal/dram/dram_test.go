package dram

import (
	"testing"
	"testing/quick"

	"memnet/internal/sim"
)

func tck(n int) sim.Time { return sim.Time(n) * 1250 }

// TestZeroBankIsClosed pins the encoding that lets banks go without a
// constructor: the zero Bank has no row open, and PRE to it is illegal.
func TestZeroBankIsClosed(t *testing.T) {
	var b Bank
	if b.OpenRow() != -1 || b.RowHit(0) {
		t.Fatalf("zero bank: open row %d, row 0 hit %v; want closed", b.OpenRow(), b.RowHit(0))
	}
	tm := Table1()
	b.PrechargeAt(0, &tm)
	if v := b.TakeViolations(); len(v) != 1 {
		t.Fatalf("PRE to the zero bank: %d violations, want 1 (%v)", len(v), v)
	}
}

func TestRowHitReadLatency(t *testing.T) {
	tm := Table1()
	var b Bank
	// First access: closed bank -> activate + read.
	issue, done := b.Access(0, 7, false, &tm, 0)
	if issue != tck(tm.RCD) {
		t.Fatalf("first issue = %d, want tRCD = %d", issue, tck(tm.RCD))
	}
	if done != issue+tck(tm.CL+tm.Burst) {
		t.Fatalf("first done = %d, want issue+CL+burst", done)
	}
	if !b.RowHit(7) {
		t.Fatal("row 7 should be open")
	}
	// Same-row access after completion: pure column access.
	issue2, done2 := b.Access(done, 7, false, &tm, 0)
	if issue2 != done {
		t.Fatalf("row-hit issue = %d, want %d (no activate)", issue2, done)
	}
	if done2-issue2 != tck(tm.CL+tm.Burst) {
		t.Fatalf("row-hit latency = %d, want CL+burst", done2-issue2)
	}
}

func TestRowConflictPaysPrechargeAndActivate(t *testing.T) {
	tm := Table1()
	var b Bank
	_, done := b.Access(0, 1, false, &tm, 0)
	issue, _ := b.Access(done, 2, false, &tm, 0)
	// Must pay at least tRP + tRCD beyond the request time.
	if issue < done+tck(tm.RP+tm.RCD) {
		t.Fatalf("conflict issue = %d, want >= %d", issue, done+tck(tm.RP+tm.RCD))
	}
	if b.OpenRow() != 2 {
		t.Fatalf("open row = %d, want 2", b.OpenRow())
	}
}

func TestTRASConstrainsEarlyPrecharge(t *testing.T) {
	tm := Table1()
	var b Bank
	b.Access(0, 1, false, &tm, 0) // activate at t=0
	// Immediately conflict: precharge may not start before tRAS.
	issue, _ := b.Access(tck(tm.RCD), 9, false, &tm, 0)
	minIssue := tck(tm.RAS) + tck(tm.RP) + tck(tm.RCD)
	if issue < minIssue {
		t.Fatalf("early conflict issue = %d, want >= %d (tRAS honored)", issue, minIssue)
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	tm := Table1()
	var b Bank
	_, wdone := b.Access(0, 3, true, &tm, 0)
	issue, _ := b.Access(wdone, 4, false, &tm, 0)
	// Precharge must wait tWR after write data.
	if issue < wdone+tck(tm.WR+tm.RP+tm.RCD) {
		t.Fatalf("post-write conflict issue = %d, want >= %d", issue, wdone+tck(tm.WR+tm.RP+tm.RCD))
	}
}

func TestCCDBackToBackColumns(t *testing.T) {
	tm := Table1()
	var b Bank
	i1, _ := b.Access(0, 5, false, &tm, 0)
	i2, _ := b.Access(i1, 5, false, &tm, 0) // request immediately
	if i2-i1 != tck(tm.CCD) {
		t.Fatalf("column spacing = %d, want tCCD = %d", i2-i1, tck(tm.CCD))
	}
}

func TestWriteLatencyShorterThanRead(t *testing.T) {
	tm := Table1()
	var b Bank
	b.Access(0, 5, false, &tm, 0)
	ir, dr := b.Access(100000, 5, false, &tm, 0)
	var b2 Bank
	b2.Access(0, 5, false, &tm, 0)
	iw, dw := b2.Access(100000, 5, true, &tm, 0)
	if dr-ir <= dw-iw {
		t.Fatalf("read latency %d should exceed write occupancy %d", dr-ir, dw-iw)
	}
}

func TestQuickAccessMonotonicAndLegal(t *testing.T) {
	tm := Table1()
	f := func(rows []uint8, gaps []uint8) bool {
		var b Bank
		now := sim.Time(0)
		lastIssue := sim.Time(-1)
		for i, r := range rows {
			if i < len(gaps) {
				now += sim.Time(gaps[i]) * 100
			}
			issue, done := b.Access(now, int64(r%4), r%2 == 0, &tm, 0)
			if issue < now || done < issue || issue <= lastIssue {
				return false
			}
			lastIssue = issue
			now = issue
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccessSequencesRecordNoViolations(t *testing.T) {
	tm := Table1()
	var b Bank
	now := sim.Time(0)
	for _, row := range []int64{1, 1, 2, 3, 3, 3, 1} {
		issue, done := b.Access(now, row, row%2 == 0, &tm, 0)
		if issue < now || done < issue {
			t.Fatalf("non-causal access: now=%d issue=%d done=%d", now, issue, done)
		}
		now = done
	}
	if v := b.Violations(); len(v) != 0 {
		t.Fatalf("legal access stream recorded violations: %v", v)
	}
}

func TestIllegalFSMTransitionsAreRecorded(t *testing.T) {
	tm := Table1()

	// ACT while a row is open.
	var b Bank
	b.ActivateAt(0, 1, &tm)
	b.ActivateAt(1000, 2, &tm)
	if v := b.Violations(); len(v) != 1 {
		t.Fatalf("double ACT: %d violations, want 1 (%v)", len(v), v)
	}

	// PRE to a precharged bank.
	b = Bank{}
	b.PrechargeAt(0, &tm)
	if v := b.Violations(); len(v) != 1 {
		t.Fatalf("PRE on closed bank: %d violations, want 1 (%v)", len(v), v)
	}

	// Column command to a closed bank, then to the wrong row.
	b = Bank{}
	b.ColumnAt(0, 5, false, &tm, 0)
	b.ActivateAt(10000, 6, &tm)
	b.ColumnAt(20000, 7, true, &tm, 0)
	if v := b.Violations(); len(v) != 2 {
		t.Fatalf("bad columns: %d violations, want 2 (%v)", len(v), v)
	}
}

func TestBankViolationsCappedAndDrained(t *testing.T) {
	tm := Table1()
	var b Bank
	for i := 0; i < 10; i++ {
		b.ColumnAt(sim.Time(i)*100000, int64(i), false, &tm, 0)
		b.Precharge()
	}
	v := b.Violations()
	if len(v) != maxBankViolations+1 { // cap plus the "more dropped" marker
		t.Fatalf("got %d entries, want %d", len(v), maxBankViolations+1)
	}
	if got := b.TakeViolations(); len(got) != maxBankViolations+1 {
		t.Fatalf("TakeViolations returned %d entries", len(got))
	}
	if len(b.Violations()) != 0 {
		t.Fatal("TakeViolations did not drain")
	}
}

func TestBankZeroValueViaNewIsClosed(t *testing.T) {
	var b Bank
	if b.OpenRow() != -1 {
		t.Fatalf("new bank open row = %d, want -1", b.OpenRow())
	}
	if b.RowHit(0) {
		t.Fatal("new bank must not report row hits")
	}
}
