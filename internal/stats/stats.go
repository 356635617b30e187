// Package stats provides the lightweight instrumentation used across the
// simulator: counters, running means, latency samplers, bucketed histograms
// and source/destination traffic matrices (the structure behind Fig. 10 of
// the paper).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates samples and reports their running mean, min and max.
type Mean struct {
	sum   float64
	count int64
	min   float64
	max   float64
}

// Add records one sample.
func (m *Mean) Add(v float64) {
	if m.count == 0 || v < m.min {
		m.min = v
	}
	if m.count == 0 || v > m.max {
		m.max = v
	}
	m.sum += v
	m.count++
}

// Count returns the number of samples recorded.
func (m *Mean) Count() int64 { return m.count }

// Sum returns the total of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Value returns the mean of the samples, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (m *Mean) Min() float64 { return m.min }

// Max returns the largest sample, or 0 with no samples.
func (m *Mean) Max() float64 { return m.max }

// Reset discards all samples.
func (m *Mean) Reset() { *m = Mean{} }

// Histogram counts samples in power-of-two buckets. Bucket i holds samples
// in [2^(i-1), 2^i), with bucket 0 holding zero and negative samples.
type Histogram struct {
	buckets [64]int64
	mean    Mean
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	h.mean.Add(float64(v))
	h.buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 64 - leadingZeros64(uint64(v))
	if b > 63 {
		b = 63
	}
	return b
}

func leadingZeros64(x uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if x&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.mean.Count() }

// MeanValue returns the sample mean.
func (h *Histogram) MeanValue() float64 { return h.mean.Value() }

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.mean.Max() }

// Percentile returns an upper bound for the p-th percentile with
// power-of-two bucket resolution. p is clamped into (0, 100]: p <= 0 asks
// for the smallest recorded sample's bucket and p > 100 for the largest,
// so callers with a computed p can never walk past the bucket array or
// silently read bucket 0.
func (h *Histogram) Percentile(p float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	target := int64(math.Ceil(float64(total) * p / 100))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			if i == 63 {
				// The top bucket spans [2^62, 2^63); its exclusive upper
				// bound does not fit in int64, so report the maximum
				// explicitly instead of relying on shift wraparound.
				return math.MaxInt64
			}
			return 1<<uint(i) - 1
		}
	}
	// Unreachable: target <= total and the buckets sum to total.
	return math.MaxInt64
}

// String renders the non-empty buckets.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f", h.Count(), h.MeanValue())
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = 1 << uint(i-1)
		}
		fmt.Fprintf(&b, " [%d,%d):%d", lo, int64(1)<<uint(i), n)
	}
	return b.String()
}

// Matrix is a dense src x dst count matrix, used for GPU-to-HMC traffic
// distributions.
type Matrix struct {
	rows, cols int
	cells      []int64
}

// NewMatrix returns a rows x cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, cells: make([]int64, rows*cols)}
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Add accumulates d at (r, c).
func (m *Matrix) Add(r, c int, d int64) { m.cells[r*m.cols+c] += d }

// At returns the value at (r, c).
func (m *Matrix) At(r, c int) int64 { return m.cells[r*m.cols+c] }

// Total returns the sum of all cells.
func (m *Matrix) Total() int64 {
	var t int64
	for _, v := range m.cells {
		t += v
	}
	return t
}

// RowSum returns the sum of row r.
func (m *Matrix) RowSum(r int) int64 {
	var t int64
	for c := 0; c < m.cols; c++ {
		t += m.At(r, c)
	}
	return t
}

// ColSum returns the sum of column c.
func (m *Matrix) ColSum(c int) int64 {
	var t int64
	for r := 0; r < m.rows; r++ {
		t += m.At(r, c)
	}
	return t
}

// MaxMinColRatio returns the ratio between the most- and least-loaded
// non-zero columns: the traffic-variance figure quoted in Section V-A
// ("some of the HMCs receive up to 11.7x more traffic than other HMCs").
// It returns 1 when fewer than two columns carry traffic.
func (m *Matrix) MaxMinColRatio() float64 {
	min, max := int64(math.MaxInt64), int64(0)
	nonzero := 0
	for c := 0; c < m.cols; c++ {
		s := m.ColSum(c)
		if s == 0 {
			continue
		}
		nonzero++
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if nonzero < 2 || min == 0 {
		return 1
	}
	return float64(max) / float64(min)
}

// Fractions returns the matrix normalized so all cells sum to 1.
func (m *Matrix) Fractions() [][]float64 {
	total := float64(m.Total())
	out := make([][]float64, m.rows)
	for r := range out {
		out[r] = make([]float64, m.cols)
		for c := 0; c < m.cols; c++ {
			if total > 0 {
				out[r][c] = float64(m.At(r, c)) / total
			}
		}
	}
	return out
}

// String renders the matrix as row-percentage cells.
func (m *Matrix) String() string {
	var b strings.Builder
	total := float64(m.Total())
	if total == 0 {
		total = 1
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			fmt.Fprintf(&b, "%5.2f%% ", 100*float64(m.At(r, c))/total)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries.
// It is used for the scalability summary (Fig. 19 reports a geometric mean
// speedup of 13.5 at 16 GPUs).
func Geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
