// Package obs is the simulator's observability bus: a Tracer that records
// duration spans, instant events and counter updates keyed by simulated
// picoseconds, and a Sampler that snapshots registered gauges every fixed
// sim-time window (see sampler.go). Traces serialize as Chrome trace_event
// JSON and open directly in ui.perfetto.dev; metrics serialize as CSV or
// JSONL time series. A Probe (see probe.go) hands both, with the run's
// audit registry and latency profiler, to each component in one call.
//
// Like the audit layer, obs is strictly passive: it schedules no events and
// touches no simulation state, so results are byte-identical with it on or
// off. The disabled path is free — a nil *Tracer and a nil *Sampler are
// valid receivers, the zero Track drops every emission without allocating,
// and components guard any event-name construction behind Track.Enabled.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"memnet/internal/sim"
)

// Event phases (the trace_event "ph" field).
const (
	phaseSpan    = 'X' // complete duration event (ts + dur)
	phaseInstant = 'i'
	phaseCounter = 'C'
)

type event struct {
	track int // 1-based thread id; 0 is the metadata pseudo-track
	ph    byte
	ts    sim.Time
	dur   sim.Time // spans only
	val   float64  // counters only
	name  string
}

// Tracer accumulates timeline events in memory and serializes them with
// Write. All methods are nil-safe: a nil *Tracer hands out inert Tracks
// whose emissions are single nil-check returns. A Tracer is not safe for
// concurrent use; each simulated system owns its own (experiment sweeps
// build one per run).
type Tracer struct {
	tracks []string
	events []event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewTrack registers a named timeline (rendered as one Perfetto thread
// row) and returns its emission handle. On a nil tracer it returns the
// inert zero Track.
func (t *Tracer) NewTrack(name string) Track {
	if t == nil {
		return Track{}
	}
	t.tracks = append(t.tracks, name)
	return Track{t: t, tid: len(t.tracks)}
}

// Events returns the number of buffered events.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Track is one component's timeline. The zero value is inert: every
// emission returns immediately without allocating, which is the entire
// disabled path.
type Track struct {
	t   *Tracer
	tid int
}

// Enabled reports whether emissions on this track are recorded. Callers
// use it to guard event-name construction (fmt.Sprintf and friends) so a
// disabled run never allocates.
func (tk Track) Enabled() bool { return tk.t != nil }

// Span records a complete duration event covering [start, end].
func (tk Track) Span(name string, start, end sim.Time) {
	if tk.t == nil {
		return
	}
	if end < start {
		end = start
	}
	tk.t.events = append(tk.t.events, event{
		track: tk.tid, ph: phaseSpan, ts: start, dur: end - start, name: name})
}

// Instant records a point-in-time event.
func (tk Track) Instant(name string, at sim.Time) {
	if tk.t == nil {
		return
	}
	tk.t.events = append(tk.t.events, event{
		track: tk.tid, ph: phaseInstant, ts: at, name: name})
}

// Counter records a counter-series sample. Perfetto groups samples by
// name into one counter track.
func (tk Track) Counter(name string, at sim.Time, v float64) {
	if tk.t == nil {
		return
	}
	tk.t.events = append(tk.t.events, event{
		track: tk.tid, ph: phaseCounter, ts: at, val: v, name: name})
}

// Write serializes the trace as Chrome trace_event JSON. Events are
// stable-sorted by timestamp so the file order is monotone in simulated
// time; metadata records naming the process and every track come first.
// Timestamps are trace_event microseconds, emitted as exact decimal
// fractions of the picosecond clock, so output is deterministic. Nil-safe:
// a nil tracer writes an empty (but valid) trace.
func (t *Tracer) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	emit(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"memnet"}}`)
	if t != nil {
		for i, name := range t.tracks {
			emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				i+1, jsonString(name)))
		}
		evs := make([]event, len(t.events))
		copy(evs, t.events)
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
		for _, e := range evs {
			switch e.ph {
			case phaseSpan:
				emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%s}`,
					e.track, microseconds(e.ts), microseconds(e.dur), jsonString(e.name)))
			case phaseInstant:
				emit(fmt.Sprintf(`{"ph":"i","s":"t","pid":0,"tid":%d,"ts":%s,"name":%s}`,
					e.track, microseconds(e.ts), jsonString(e.name)))
			case phaseCounter:
				emit(fmt.Sprintf(`{"ph":"C","pid":0,"tid":%d,"ts":%s,"name":%s,"args":{"value":%s}}`,
					e.track, microseconds(e.ts), jsonString(e.name), jsonFloat(e.val)))
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// microseconds renders a picosecond time as a decimal microsecond literal
// with full precision (1 ps = 1e-6 us).
func microseconds(t sim.Time) string {
	return fmt.Sprintf("%d.%06d", t/sim.Microsecond, t%sim.Microsecond)
}

// jsonString quotes and escapes a string for direct JSON embedding.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // unreachable for strings
		return `""`
	}
	return string(b)
}

// jsonFloat renders a float as a JSON number; non-finite values (which
// JSON cannot carry) degrade to 0.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseDuration parses a sim-time duration like "500ns", "1us", "2.5ms"
// or a bare picosecond count like "1000". Units: ps, ns, us, ms, s.
//
// Durations configure positive sim-time windows (metrics epochs, fault
// horizons, watchdogs), so NaN, infinities, zero and negative values are
// rejected, as are values that overflow the int64 picosecond clock.
func ParseDuration(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		scale  sim.Time
	}{
		{"ps", sim.Picosecond}, {"ns", sim.Nanosecond},
		{"us", sim.Microsecond}, {"ms", sim.Millisecond},
		{"s", 1000 * sim.Millisecond},
	}
	s = strings.TrimSpace(s)
	for _, u := range units {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
		if err != nil {
			return 0, fmt.Errorf("obs: bad duration %q: %v", s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("obs: bad duration %q: must be finite", s)
		}
		if v <= 0 {
			return 0, fmt.Errorf("obs: bad duration %q: must be positive", s)
		}
		ps := v * float64(u.scale)
		if ps >= float64(math.MaxInt64) {
			return 0, fmt.Errorf("obs: duration %q overflows the picosecond clock", s)
		}
		return sim.Time(ps), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad duration %q (want e.g. 500ns, 1us)", s)
	}
	if v <= 0 {
		return 0, fmt.Errorf("obs: bad duration %q: must be positive", s)
	}
	return sim.Time(v), nil
}

// CheckWritable verifies upfront that path can be created for writing, so
// a long run does not discover an unwritable -trace/-metrics destination
// only when it ends. It creates the file if absent (existing contents are
// left untouched; the run truncates it when it actually writes).
func CheckWritable(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("obs: output %s is not writable: %w", path, err)
	}
	return f.Close()
}
