package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Span kinds. A job span (one design point, load point or HTTP job) is
// the parent of its set-up and run spans; set-up rounds stand alone.
const (
	kindJob   = "job"
	kindSetup = "setup" // core.NewSystem, noc.BuildTopology, memnetd start + warm fill
	kindRun   = "run"   // System.Execute, the load point's traffic, one HTTP call
	kindRound = "round"
)

// Names of the spans around each call into a layer.
const (
	spanNewSystem     = "core.NewSystem"
	spanExecute       = "core.System.Execute"
	spanBuildTopology = "noc.BuildTopology"
	spanTraffic       = "noc send/deliver"
	spanHTTP          = "POST /v1/run"
)

// span is one benchmark-side interval, in nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(kind, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Kind: kind, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// durationsMS lists the closed spans of one name, in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// modules are the rows of the traced run's module table, in report order.
// A sample is charged to the first frame, walking from the leaf, that
// belongs to a row: Go runtime allocation and collection frames to gc,
// memnet packages to their own row, net and net/http to nethttp, crypto to
// crypto and the benchmark's own code to bench. Other standard-library
// frames (runtime helpers, encoding/json, syscalls, ...) are charged to
// their caller; a stack with no other frame goes to runtime, and anything
// left — memnet packages without a row, third-party code — to other.
var modules = []string{
	"noc", "sim", "gpu", "cache", "hmc", "dram", "ske", "pcie", "cpu", "coherence",
	"core", "mem", "workload", "stats", "pool", "exp", "par",
	"serve", "cachedir", "telemetry", "nethttp", "crypto",
	"gc", "runtime", "bench", "other",
}

// gcFramePrefixes mark Go runtime allocation and garbage-collection work.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*pageAlloc)",
	"runtime.(*scavengerState)", "runtime.(*sweepLocked)", "runtime.(*gcBits)",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.greyobject", "runtime.markroot", "runtime.markBits", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.findObject", "runtime.heapBits", "runtime.typePointers", "runtime.(*typePointers)",
}

// moduleOf maps a stack (leaf first) to its module row.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		pkg := pkgOf(fn)
		switch {
		case pkg == "main":
			return "bench"
		case strings.HasPrefix(pkg, "memnet/"):
			return memnetRow(pkg)
		case pkg == "net" || strings.HasPrefix(pkg, "net/"):
			return "nethttp"
		case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"):
			return "crypto"
		case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
			continue // other standard library: charge the caller
		default:
			return "other"
		}
	}
	return "runtime"
}

// pkgOf extracts the import path from a symbol such as
// "memnet/internal/noc.(*Network).step".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may contain other paths
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func memnetRow(pkg string) string {
	name := strings.TrimPrefix(pkg, "memnet/internal/")
	if name == "serve/cachedir" {
		return "cachedir"
	}
	for _, m := range modules {
		if m == name {
			return m
		}
	}
	return "other"
}

// profileTable is a CPU profile folded into the module rows.
type profileTable struct {
	samples  int64
	cpuNS    float64
	byModule map[string]float64 // CPU nanoseconds per row
}

// foldProfile decodes a runtime/pprof CPU profile and charges every sample
// to exactly one row.
func foldProfile(gz []byte) (*profileTable, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	t := &profileTable{byModule: make(map[string]float64, len(modules))}
	var stack []string
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, errors.New("CPU profile: sample without a CPU-time value")
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.str(p.funcName[fn]))
			}
		}
		ns := float64(s.values[1])
		t.samples += s.values[0]
		t.cpuNS += ns
		t.byModule[moduleOf(stack)] += ns
	}
	return t, nil
}

// traceDir is where a traced run writes its spans and module table,
// relative to the repository root the benchmark runs from.
const traceDir = ".bench_build/perfbench-traces"

// writeTrace writes the spans and the module table of a traced run.
func writeTrace(workload string, seed int64, tr *tracer, p *profileTable) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	type row struct {
		CPUSeconds float64 `json:"cpu_s"`
		Pct        float64 `json:"pct"`
	}
	rows := make(map[string]row, len(modules))
	for _, m := range modules {
		r := row{CPUSeconds: p.byModule[m] / 1e9}
		if p.cpuNS > 0 {
			r.Pct = 100 * p.byModule[m] / p.cpuNS
		}
		rows[m] = r
	}
	tr.mu.Lock()
	data, err := json.MarshalIndent(map[string]any{
		"workload": workload,
		"seed":     seed,
		"samples":  p.samples,
		"cpu_s":    p.cpuNS / 1e9,
		"modules":  rows,
		"spans":    tr.spans,
	}, "", " ")
	tr.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// rawProfile is the subset of profile.proto the module table needs.
type rawProfile struct {
	samples  []rawSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string-table index
	strs     []string
}

type rawSample struct {
	locs   []uint64 // leaf first
	values []int64  // [samples, cpu nanoseconds]
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile parses an uncompressed profile.proto message: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	return p, eachField(b, func(f, wire int, r *pbReader) error {
		switch f {
		case 2, 4, 5, 6:
			msg, err := r.bytes(wire)
			if err != nil {
				return err
			}
			switch f {
			case 2:
				return p.addSample(msg)
			case 4:
				return p.addLocation(msg)
			case 5:
				return p.addFunction(msg)
			default:
				p.strs = append(p.strs, string(msg))
			}
			return nil
		}
		return r.skip(wire)
	})
}

func (p *rawProfile) addSample(b []byte) error {
	var s rawSample
	err := eachField(b, func(f, wire int, r *pbReader) error {
		switch f {
		case 1:
			return r.varints(wire, func(v uint64) { s.locs = append(s.locs, v) })
		case 2:
			return r.varints(wire, func(v uint64) { s.values = append(s.values, int64(v)) })
		}
		return r.skip(wire)
	})
	p.samples = append(p.samples, s)
	return err
}

func (p *rawProfile) addLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	err := eachField(b, func(f, wire int, r *pbReader) error {
		switch f {
		case 1:
			return r.varints(wire, func(v uint64) { id = v })
		case 4:
			line, err := r.bytes(wire)
			if err != nil {
				return err
			}
			return eachField(line, func(f, wire int, r *pbReader) error {
				if f == 1 {
					return r.varints(wire, func(v uint64) { funcs = append(funcs, v) })
				}
				return r.skip(wire)
			})
		}
		return r.skip(wire)
	})
	p.locFuncs[id] = funcs
	return err
}

func (p *rawProfile) addFunction(b []byte) error {
	var id uint64
	var name int64
	err := eachField(b, func(f, wire int, r *pbReader) error {
		switch f {
		case 1:
			return r.varints(wire, func(v uint64) { id = v })
		case 2:
			return r.varints(wire, func(v uint64) { name = int64(v) })
		}
		return r.skip(wire)
	})
	p.funcName[id] = name
	return err
}

// pbReader walks protobuf wire format.
type pbReader struct {
	b []byte
	i int
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a message; fn must consume the
// field's payload.
func eachField(b []byte, fn func(field, wire int, r *pbReader) error) error {
	r := &pbReader{b: b}
	for r.i < len(r.b) {
		key, err := r.uvarint()
		if err != nil {
			return err
		}
		if err := fn(int(key>>3), int(key&7), r); err != nil {
			return err
		}
	}
	return nil
}

func (r *pbReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.i += n
	return v, nil
}

func (r *pbReader) bytes(wire int) ([]byte, error) {
	if wire != 2 {
		return nil, fmt.Errorf("protobuf: wire type %d where bytes expected", wire)
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.i) {
		return nil, errTruncated
	}
	out := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return out, nil
}

// varints reads one varint or a packed run of them.
func (r *pbReader) varints(wire int, fn func(uint64)) error {
	if wire == 0 {
		v, err := r.uvarint()
		if err == nil {
			fn(v)
		}
		return err
	}
	packed, err := r.bytes(wire)
	if err != nil {
		return err
	}
	sub := &pbReader{b: packed}
	for sub.i < len(sub.b) {
		v, err := sub.uvarint()
		if err != nil {
			return err
		}
		fn(v)
	}
	return nil
}

func (r *pbReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := r.uvarint()
		return err
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.b)-r.i < n {
			return errTruncated
		}
		r.i += n
		return nil
	case 2:
		_, err := r.bytes(wire)
		return err
	}
	return fmt.Errorf("protobuf: unsupported wire type %d", wire)
}
