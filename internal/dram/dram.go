// Package dram models DRAM bank timing for the HMC vaults.
//
// Each bank tracks its open row and the earliest times at which the next
// activate, column command and precharge may issue, derived from the timing
// parameters of Table I of the paper (tCK=1.25ns, tRP=11, tCCD=4, tRCD=11,
// tCL=11, tWR=12, tRAS=22, all in DRAM cycles).
package dram

import (
	"fmt"

	"memnet/internal/sim"
)

// Timing holds DRAM timing parameters. Cycle-valued fields are in DRAM
// clock cycles of period TCK.
type Timing struct {
	TCK   sim.Time // DRAM clock period
	RP    int      // precharge period
	CCD   int      // column-to-column delay
	RCD   int      // row-to-column delay
	CL    int      // CAS (read) latency
	WR    int      // write recovery
	RAS   int      // activate-to-precharge
	Burst int      // data burst length in cycles
}

// Table1 returns the paper's DRAM timing (Table I).
func Table1() Timing {
	return Timing{
		TCK:   1250 * sim.Picosecond,
		RP:    11,
		CCD:   4,
		RCD:   11,
		CL:    11,
		WR:    12,
		RAS:   22,
		Burst: 4,
	}
}

func (t Timing) cyc(n int) sim.Time { return sim.Time(n) * t.TCK }

// maxBankViolations caps how many FSM violations one bank records; a bad
// controller would otherwise flood memory with identical reports.
const maxBankViolations = 4

// Bank is the timing state of one DRAM bank, driven as a row-buffer FSM:
// PRE is legal only with a row open, ACT only with the bank precharged, and
// column commands only to the open row. Violations indicate a controller
// bug; they are recorded on the bank for the audit layer to drain rather
// than panicking, so timing results are still produced.
//
// The zero Bank is closed and idle, so banks are built by allocating
// them. A bank is 40 bytes and holds no pointer until its first violation.
type Bank struct {
	open       int64 // the open row plus one; 0 while the bank is precharged
	actAt      sim.Time
	colReadyAt sim.Time // earliest next column command (tCCD)
	preReadyAt sim.Time // earliest next precharge (tWR after writes)

	log *violationLog // nil until the first violation
}

// violationLog is a bank's record of FSM violations: up to
// maxBankViolations messages, then a count of the ones dropped.
type violationLog struct {
	msgs    []string
	dropped int
}

// OpenRow returns the currently open row, or -1 if the bank is precharged.
func (b *Bank) OpenRow() int64 { return b.open - 1 }

// Precharge closes the open row (used by refresh, which precharges all
// banks before the refresh cycle).
func (b *Bank) Precharge() { b.open = 0 }

// RowHit reports whether accessing row would hit the open row buffer.
func (b *Bank) RowHit(row int64) bool { return b.open == row+1 }

// illegal records an FSM violation, capped at maxBankViolations.
func (b *Bank) illegal(msg string) {
	if b.log == nil {
		b.log = &violationLog{}
	}
	if len(b.log.msgs) < maxBankViolations {
		b.log.msgs = append(b.log.msgs, msg)
		return
	}
	b.log.dropped++
}

// Violations returns the FSM violations recorded so far. A "... more
// dropped" entry is appended when the per-bank cap was hit.
func (b *Bank) Violations() []string {
	if b.log == nil {
		return nil
	}
	out := append([]string(nil), b.log.msgs...)
	if b.log.dropped > 0 {
		out = append(out, fmt.Sprintf("(%d more violations dropped)", b.log.dropped))
	}
	return out
}

// TakeViolations returns the recorded violations and clears them, so a
// periodic audit pass reports each violation once.
func (b *Bank) TakeViolations() []string {
	out := b.Violations()
	b.log = nil
	return out
}

// PrechargeAt issues PRE at the earliest legal time at or after now —
// honoring write recovery and tRAS since the activate — and returns when
// the bank is precharged. PRE to an already-precharged bank is an FSM
// violation.
func (b *Bank) PrechargeAt(now sim.Time, t *Timing) sim.Time {
	if b.open <= 0 {
		b.illegal(fmt.Sprintf("PRE at %d ps to an already-precharged bank", now))
	}
	pre := maxTime(now, b.preReadyAt)
	pre = maxTime(pre, b.actAt+t.cyc(t.RAS))
	b.open = 0
	return pre + t.cyc(t.RP)
}

// ActivateAt issues ACT for row at now and returns when the row is open
// (tRCD later). ACT while another row is open is an FSM violation: real
// DRAM requires an intervening precharge.
func (b *Bank) ActivateAt(now sim.Time, row int64, t *Timing) sim.Time {
	if b.open > 0 {
		b.illegal(fmt.Sprintf("ACT row %d at %d ps while row %d is open", row, now, b.OpenRow()))
	}
	b.actAt = now
	b.open = row + 1
	return now + t.cyc(t.RCD)
}

// ColumnAt issues the RD/WR column command at the earliest legal time at or
// after now (tCCD spacing, minCol data-bus bound) and returns when it
// issues and when its data completes. A column command to anything but the
// open row is an FSM violation.
func (b *Bank) ColumnAt(now sim.Time, row int64, write bool, t *Timing, minCol sim.Time) (issue, done sim.Time) {
	if !b.RowHit(row) {
		op := "RD"
		if write {
			op = "WR"
		}
		b.illegal(fmt.Sprintf("%s row %d at %d ps but open row is %d", op, row, now, b.OpenRow()))
	}
	issue = maxTime(now, b.colReadyAt)
	issue = maxTime(issue, minCol)
	b.colReadyAt = issue + t.cyc(t.CCD)
	if write {
		done = issue + t.cyc(t.Burst)
		b.preReadyAt = done + t.cyc(t.WR)
	} else {
		done = issue + t.cyc(t.CL+t.Burst)
		b.preReadyAt = issue + t.cyc(t.Burst)
	}
	return issue, done
}

// Access issues a read or write to row at the earliest legal time at or
// after now and returns when the column command issues and when its data
// completes. minCol lower-bounds the column command time (the vault's
// shared data bus); row activation may proceed before minCol. The bank
// state (open row, next-command constraints) is updated through the guarded
// FSM operations, so an illegal sequence is recorded rather than silently
// mistimed.
func (b *Bank) Access(now sim.Time, row int64, write bool, t *Timing, minCol sim.Time) (issue, done sim.Time) {
	if !b.RowHit(row) {
		// Precharge (if a row is open), then activate the target row.
		if b.open > 0 {
			now = b.PrechargeAt(now, t)
		}
		now = b.ActivateAt(now, row, t)
	}
	return b.ColumnAt(now, row, write, t, minCol)
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
