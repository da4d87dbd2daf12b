// Package metrics provides counters, histograms, and aligned-table
// reporting. The experiment harness uses it to print paper-style result
// tables, and the world server uses it for per-tick accounting.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjustable int64 counter safe for concurrent
// use. The zero value is ready to use.
type Counter struct {
	n atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increments the counter by delta (which may be negative).
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n.Store(0) }

// Histogram records float64 observations and reports summary statistics.
// It retains every observation up to a fixed cap, after which it keeps a
// strided sample; quantiles remain representative for the smooth
// distributions produced by the experiments. The zero value is ready to
// use. Histogram is safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	vals   []float64
	count  int64
	sum    float64
	min    float64
	max    float64
	stride int64 // record every stride-th observation once over cap

	// sorted caches the sort of vals so repeated Quantile calls (a
	// metrics scrape asks for several quantiles per histogram) don't
	// copy and re-sort the retained sample each time. Any mutation of
	// vals marks it dirty; Quantile rebuilds it lazily.
	sorted []float64
	dirty  bool
}

// histCap bounds retained observations so long experiments stay in memory.
const histCap = 1 << 18

// Record adds one observation.
func (h *Histogram) Record(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.record(v)
}

// RecordAll adds every observation in vs, in order, under one lock: the
// same histogram as one Record call per value.
func (h *Histogram) RecordAll(vs []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range vs {
		h.record(v)
	}
}

// record adds one observation; h.mu is held.
func (h *Histogram) record(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if h.stride == 0 {
		h.stride = 1
	}
	if len(h.vals) >= histCap {
		// Thin the reservoir: keep every other value and double the stride.
		kept := h.vals[:0]
		for i := 0; i < len(h.vals); i += 2 {
			kept = append(kept, h.vals[i])
		}
		h.vals = kept
		h.stride *= 2
		h.dirty = true
	}
	if h.count%h.stride == 0 {
		h.vals = append(h.vals, v)
		h.dirty = true
	}
}

// RecordDuration adds one observation measured in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(float64(d.Nanoseconds())) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the retained sample,
// or 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vals) == 0 {
		return 0
	}
	if h.dirty || len(h.sorted) != len(h.vals) {
		h.sorted = append(h.sorted[:0], h.vals...)
		sort.Float64s(h.sorted)
		h.dirty = false
	}
	s := h.sorted
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := q * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vals = h.vals[:0]
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.stride = 1
	h.sorted = h.sorted[:0]
	h.dirty = false
}

// Fnum formats a float compactly for table cells: integers print without
// decimals, small magnitudes keep three significant decimals.
func Fnum(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Fdur formats a duration given in nanoseconds using an adaptive unit.
func Fdur(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
