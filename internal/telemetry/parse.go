package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set and
// its value. Histograms appear as their expanded _bucket/_sum/_count
// series, exactly as exposed.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText parses the Prometheus text exposition format (the subset this
// package emits: HELP/TYPE comments, optionally labeled sample lines).
// It is the reading half of WritePrometheus — cmd/memnetstat uses it to
// render a live view from a /metrics scrape — and the round-trip test
// keeps the two halves honest.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return out, nil
}

// parseSample parses `name{k="v",...} value` or `name value`.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses the inside of a `{...}` block.
func parseLabels(block string) (map[string]string, error) {
	labels := make(map[string]string)
	rest := block
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return nil, fmt.Errorf("malformed label %q", rest)
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		// Find the closing quote, honoring backslash escapes.
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		rest = rest[i+1:]
		rest = strings.TrimPrefix(rest, ",")
	}
	return labels, nil
}

// parseValue accepts the float formats formatFloat emits.
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(v, 64)
}

// Find returns the first sample matching name and every given label pair,
// or ok=false. Pairs are alternating key/value, as in Registry
// registration.
func Find(samples []Sample, name string, pairs ...string) (Sample, bool) {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", pairs))
	}
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i < len(pairs); i += 2 {
			if s.Labels[pairs[i]] != pairs[i+1] {
				continue next
			}
		}
		return s, true
	}
	return Sample{}, false
}
