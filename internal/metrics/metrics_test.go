package metrics

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load() = %d, want 5", got)
	}
	c.Add(-2)
	if got := c.Load(); got != 3 {
		t.Fatalf("Load() = %d, want 3", got)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset, Load() = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load() = %d, want 8000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v, want 1/5", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v, want 5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(10)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Record(2)
	if h.Mean() != 2 {
		t.Fatalf("Mean after reuse = %v, want 2", h.Mean())
	}
}

func TestHistogramThinning(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	n := histCap*2 + 100
	for i := 0; i < n; i++ {
		h.Record(rng.Float64() * 100)
	}
	if h.Count() != int64(n) {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	// The uniform distribution's median must survive thinning roughly.
	med := h.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Fatalf("median after thinning = %v, want ≈50", med)
	}
}

func TestHistogramThinningPreservesTotals(t *testing.T) {
	// Crossing histCap thins the retained sample but must keep the
	// exact-statistics fields — Count, Sum, Min, Max — untouched: they
	// accumulate outside the reservoir.
	var h Histogram
	n := histCap + histCap/2
	var sum float64
	for i := 1; i <= n; i++ {
		v := float64(i)
		h.Record(v)
		sum += v
	}
	if h.Count() != int64(n) {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", h.Sum(), sum)
	}
	if h.Min() != 1 || h.Max() != float64(n) {
		t.Fatalf("Min/Max = %v/%v, want 1/%d", h.Min(), h.Max(), n)
	}
	// The retained reservoir stays bounded and the quantiles stay
	// representative of the 1..n ramp: the median near n/2 and the
	// tails at the extremes, within the thinned sample's resolution.
	tol := float64(n) * 0.01
	if med := h.Quantile(0.5); med < float64(n)/2-tol || med > float64(n)/2+tol {
		t.Fatalf("median = %v, want ≈%v", med, float64(n)/2)
	}
	if q9 := h.Quantile(0.9); q9 < 0.9*float64(n)-tol || q9 > 0.9*float64(n)+tol {
		t.Fatalf("q90 = %v, want ≈%v", q9, 0.9*float64(n))
	}
	if q0 := h.Quantile(0); q0 > tol {
		t.Fatalf("q0 = %v, want near 1", q0)
	}
	if q1 := h.Quantile(1); q1 < float64(n)-tol {
		t.Fatalf("q1 = %v, want near %d", q1, n)
	}
}

// TestHistogramRecordAllMatchesRecord: batches of every size from one
// value up, across the reservoir's first two thinnings, leave the same
// histogram as one Record per value — totals, extremes, the retained
// sample and its stride, and the quantiles read off it.
func TestHistogramRecordAllMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs := make([]float64, histCap*2+1000)
	for i := range vs {
		vs[i] = math.Round(rng.ExpFloat64() * 10)
	}
	var one, all Histogram
	for _, v := range vs {
		one.Record(v)
	}
	one.Quantile(0.5) // a cached sorted view must not leak into the next batch
	for rest, size := vs, 1; len(rest) > 0; size = size*3 + 1 {
		n := min(size, len(rest))
		all.RecordAll(rest[:n])
		all.Quantile(0.5)
		rest = rest[n:]
	}
	all.RecordAll(nil)
	if one.Count() != all.Count() || one.Sum() != all.Sum() || one.Min() != all.Min() || one.Max() != all.Max() {
		t.Fatalf("RecordAll count/sum/min/max %d/%v/%v/%v, Record %d/%v/%v/%v",
			all.Count(), all.Sum(), all.Min(), all.Max(), one.Count(), one.Sum(), one.Min(), one.Max())
	}
	if one.stride != all.stride || one.stride < 4 || !slices.Equal(one.vals, all.vals) {
		t.Fatalf("reservoirs differ: stride %d vs %d, %d vs %d values", all.stride, one.stride, len(all.vals), len(one.vals))
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if a, b := all.Quantile(q), one.Quantile(q); a != b {
			t.Fatalf("Quantile(%v) = %v after RecordAll, %v after Record", q, a, b)
		}
	}
}

func TestHistogramQuantileCacheInvalidation(t *testing.T) {
	// Quantile caches its sorted view; a Record after a Quantile must
	// invalidate it so the next Quantile sees the new observation.
	var h Histogram
	h.Record(10)
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("q1 = %v, want 10", got)
	}
	h.Record(30)
	if got := h.Quantile(1); got != 30 {
		t.Fatalf("q1 after Record = %v, want 30 (stale sorted cache?)", got)
	}
	h.Record(20)
	if got := h.Quantile(0.5); got != 20 {
		t.Fatalf("median = %v, want 20", got)
	}
	h.Reset()
	h.Record(5)
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("median after Reset = %v, want 5", got)
	}
}

// BenchmarkHistogramQuantile prices repeated quantile reads of a large
// retained sample — the metrics-endpoint scrape pattern (several
// quantiles per histogram per scrape). The sorted-view cache makes
// iterations after the first sort O(1) instead of O(n log n).
func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < histCap; i++ {
		h.Record(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.5)
		h.Quantile(0.9)
		h.Quantile(0.99)
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	var h Histogram
	h.RecordDuration(2 * time.Millisecond)
	if h.Max() != 2e6 {
		t.Fatalf("Max = %v, want 2e6 ns", h.Max())
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("T1: demo", "n", "time")
	tbl.AddRow("100", "1.5ms")
	tbl.AddRowf(200, 2.0)
	tbl.Note = "bigger is slower"
	out := tbl.String()
	for _, want := range []string{"T1: demo", "n", "time", "100", "1.5ms", "200", "note: bigger is slower"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, two rows, note
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("1")
	if len(tbl.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tbl.Rows[0])
	}
}

func TestFnum(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		123.456: "123.5",
		0.01234: "0.0123",
	}
	for in, want := range cases {
		if got := Fnum(in); got != want {
			t.Errorf("Fnum(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFdur(t *testing.T) {
	if got := Fdur(1500); got != "1.50µs" {
		t.Errorf("Fdur(1500) = %q", got)
	}
	if got := Fdur(2.5e9); got != "2.50s" {
		t.Errorf("Fdur(2.5e9) = %q", got)
	}
	if got := Fdur(500); got != "500ns" {
		t.Errorf("Fdur(500) = %q", got)
	}
	if got := Fdur(3.2e6); got != "3.20ms" {
		t.Errorf("Fdur(3.2e6) = %q", got)
	}
}
