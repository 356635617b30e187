package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memnet/internal/sim"
)

// traceFile mirrors the trace_event container for parsing in tests.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Name string                 `json:"name"`
	Args map[string]interface{} `json:"args"`
}

func parseTrace(t *testing.T, data []byte) traceFile {
	t.Helper()
	if !json.Valid(data) {
		t.Fatalf("trace is not valid JSON:\n%s", data)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestTracerWritesValidSortedJSON(t *testing.T) {
	tr := NewTracer()
	a := tr.NewTrack("alpha")
	b := tr.NewTrack(`beta "quoted"`)
	// Emit out of timestamp order: the span starting at 10 is recorded
	// after the instant at 500.
	b.Instant("later", 500*sim.Nanosecond)
	a.Span("early span", 10*sim.Nanosecond, 40*sim.Nanosecond)
	a.Counter("depth", 20*sim.Nanosecond, 3.5)
	if tr.Events() != 3 {
		t.Fatalf("Events() = %d, want 3", tr.Events())
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf := parseTrace(t, buf.Bytes())

	var names []string
	lastTs := -1.0
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "thread_name" {
				names = append(names, e.Args["name"].(string))
			}
			continue
		}
		if e.Ts < lastTs {
			t.Fatalf("timestamps not monotone in file order: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != `beta "quoted"` {
		t.Fatalf("thread names = %v", names)
	}
	// The span (ts 0.01 us) must now precede the instant (ts 0.5 us).
	var kinds []string
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" {
			kinds = append(kinds, e.Ph)
		}
	}
	if want := []string{"X", "C", "i"}; strings.Join(kinds, "") != strings.Join(want, "") {
		t.Fatalf("event order = %v, want %v", kinds, want)
	}
}

func TestTracerNilAndEmpty(t *testing.T) {
	var tr *Tracer
	tk := tr.NewTrack("nope")
	tk.Span("s", 0, 1)
	tk.Instant("i", 0)
	tk.Counter("c", 0, 1)
	if tk.Enabled() {
		t.Fatal("nil tracer produced an enabled track")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf := parseTrace(t, buf.Bytes())
	if len(tf.TraceEvents) != 1 { // process_name metadata only
		t.Fatalf("nil tracer wrote %d events", len(tf.TraceEvents))
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := NewTracer()
	tk := tr.NewTrack("t")
	tk.Span("backwards", 100, 50)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf := parseTrace(t, buf.Bytes())
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Dur != 0 {
			t.Fatalf("negative span not clamped: dur=%v", e.Dur)
		}
	}
}

func TestSamplerRowsAndRates(t *testing.T) {
	s := NewSampler(sim.Microsecond)
	cum := 0.0
	s.Gauge("inst", func() float64 { return 7 })
	s.Rate("rate", func() float64 { return cum }, 0.5)

	cum = 10
	s.Advance(2500 * sim.Nanosecond) // boundaries at 1us and 2us
	if s.Rows() != 2 {
		t.Fatalf("Rows() = %d, want 2", s.Rows())
	}
	cum = 30
	s.Finish(2500 * sim.Nanosecond) // partial window [2us, 2.5us)
	if s.Rows() != 3 {
		t.Fatalf("Rows() = %d after Finish, want 3", s.Rows())
	}
	s.Finish(9 * sim.Microsecond) // idempotent
	if s.Rows() != 3 {
		t.Fatalf("second Finish added rows: %d", s.Rows())
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "window,time_ps,inst,rate" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	// Window 1: rate delta 10-0 scaled by 0.5 = 5. Window 3: delta 30-10
	// scaled = 10 (windows 1 and 2 sample the same cum=10).
	if lines[1] != "1,1000000,7,5" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,2000000,7,0" {
		t.Fatalf("row 2 = %q", lines[2])
	}
	if lines[3] != "3,2500000,7,10" {
		t.Fatalf("row 3 = %q", lines[3])
	}
}

func TestSamplerExactMultipleHasNoPartialRow(t *testing.T) {
	s := NewSampler(sim.Microsecond)
	s.Gauge("g", func() float64 { return 1 })
	s.Finish(3 * sim.Microsecond)
	if s.Rows() != 3 {
		t.Fatalf("Rows() = %d, want 3 (T an exact multiple of the epoch)", s.Rows())
	}
	s2 := NewSampler(sim.Microsecond)
	s2.Finish(0)
	if s2.Rows() != 0 {
		t.Fatalf("zero-duration run sampled %d rows", s2.Rows())
	}
}

func TestSamplerJSONL(t *testing.T) {
	s := NewSampler(sim.Microsecond)
	s.Gauge("queue depth", func() float64 { return 2 })
	s.Finish(1500 * sim.Nanosecond)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL has %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if m["queue depth"].(float64) != 2 {
			t.Fatalf("line %q lost the gauge value", ln)
		}
	}
}

func TestSamplerBridgeMirrorsIntoTracer(t *testing.T) {
	tr := NewTracer()
	s := NewSampler(sim.Microsecond)
	s.Gauge("util", func() float64 { return 0.25 })
	s.AttachTracer(tr)
	s.Finish(2 * sim.Microsecond)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tf := parseTrace(t, buf.Bytes())
	counters := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "C" && e.Name == "util" {
			counters++
			if e.Args["value"].(float64) != 0.25 {
				t.Fatalf("counter value = %v", e.Args["value"])
			}
		}
	}
	if counters != 2 {
		t.Fatalf("bridge mirrored %d counter samples, want 2", counters)
	}
}

func TestNilSamplerIsInert(t *testing.T) {
	var s *Sampler
	s.Gauge("g", func() float64 { return 1 })
	s.Rate("r", func() float64 { return 1 }, 1)
	s.AttachTracer(NewTracer())
	s.Advance(sim.Microsecond)
	s.Finish(sim.Microsecond)
	if s.Rows() != 0 || s.Epoch() != 0 {
		t.Fatal("nil sampler not inert")
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"500ns", 500 * sim.Nanosecond},
		{"1us", sim.Microsecond},
		{"2.5ms", 2500 * sim.Microsecond},
		{"1s", 1000 * sim.Millisecond},
		{"250ps", 250},
		{"1000", 1000},
		{" 10 us ", 10 * sim.Microsecond},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseDuration(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "fast", "1.5.5us", "us"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Fatalf("ParseDuration(%q) did not fail", bad)
		}
	}
}

// TestParseDurationRejectsDegenerate pins the hardening fix: a duration
// used as a sampling epoch or trace interval must be a finite, positive
// time that fits the int64 picosecond clock. NaN/Inf parse as valid
// floats, so each needs an explicit rejection.
func TestParseDurationRejectsDegenerate(t *testing.T) {
	cases := map[string]string{
		"NaNus":                 "finite",
		"nanms":                 "finite",
		"Infus":                 "finite",
		"+Infs":                 "finite",
		"-Infns":                "finite",
		"0us":                   "positive",
		"0":                     "positive",
		"-1us":                  "positive",
		"-5":                    "positive",
		"-0.5ms":                "positive",
		"1e30ns":                "overflows",
		"1e100s":                "overflows",
		"9223372036854775807us": "overflows",
	}
	for in, wantSub := range cases {
		_, err := ParseDuration(in)
		if err == nil {
			t.Errorf("ParseDuration(%q) accepted a degenerate duration", in)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("ParseDuration(%q) error %q, want mention of %q", in, err, wantSub)
		}
	}
}

// TestCheckWritable covers the upfront -trace/-metrics path validation.
func TestCheckWritable(t *testing.T) {
	dir := t.TempDir()
	// A fresh path in a writable directory passes (and is created).
	fresh := filepath.Join(dir, "out.csv")
	if err := CheckWritable(fresh); err != nil {
		t.Fatalf("CheckWritable(fresh) = %v", err)
	}
	// An existing file passes and keeps its contents.
	keep := filepath.Join(dir, "keep.csv")
	if err := os.WriteFile(keep, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckWritable(keep); err != nil {
		t.Fatalf("CheckWritable(existing) = %v", err)
	}
	if data, _ := os.ReadFile(keep); string(data) != "precious" {
		t.Fatalf("CheckWritable truncated the file to %q", data)
	}
	// A path under a missing directory fails upfront.
	if err := CheckWritable(filepath.Join(dir, "no", "such", "dir", "x.csv")); err == nil {
		t.Fatal("CheckWritable accepted a path in a missing directory")
	}
}

// TestDisabledPathZeroAlloc proves the disabled path allocates nothing:
// the zero Track and nil Sampler drop emissions on a nil check alone.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	tk := tr.NewTrack("off")
	var s *Sampler
	allocs := testing.AllocsPerRun(1000, func() {
		tk.Span("span", 0, 100)
		tk.Instant("instant", 50)
		tk.Counter("counter", 50, 1)
		s.Advance(12345)
		s.Finish(12345)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}
