package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSpansAndChromeExport(t *testing.T) {
	tr := NewTracer(64)
	c0 := tr.Context(0)
	c1 := tr.Context(1)
	if tr.Context(0) != c0 {
		t.Fatalf("Context(0) not stable")
	}
	start := time.Now()
	c0.Span(SpanQuery, 1, -1, start)
	c0.Span(SpanTick, 1, -1, start)
	c1.Span(SpanTrigRnd, 1, 2, start)
	tr.Context(CoordShard).Span(SpanBarrier, 1, -1, start)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(parsed.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4", len(parsed.TraceEvents))
	}
	sawRound, sawCoord := false, false
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == SpanTrigRnd {
			if r, ok := ev.Args["round"].(float64); !ok || int(r) != 2 {
				t.Fatalf("round span args = %v", ev.Args)
			}
			sawRound = true
		}
		if ev.Name == SpanBarrier {
			// The coordinator track must land after every shard track.
			if ev.TID != 2 {
				t.Fatalf("barrier tid = %d, want 2", ev.TID)
			}
			sawCoord = true
		}
	}
	if !sawRound || !sawCoord {
		t.Fatalf("missing round (%v) or coordinator (%v) event", sawRound, sawCoord)
	}
}

func TestSpanRingWraps(t *testing.T) {
	tr := NewTracer(4)
	c := tr.Context(0)
	start := time.Now()
	for i := 0; i < 10; i++ {
		c.Span(SpanTick, int64(i), -1, start)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	// Oldest spans were overwritten: ticks 6..9 remain.
	seen := map[int64]bool{}
	for _, s := range spans {
		seen[s.Tick] = true
	}
	for tick := int64(6); tick < 10; tick++ {
		if !seen[tick] {
			t.Fatalf("tick %d missing after wrap; retained %v", tick, seen)
		}
	}
}

func TestSlowestTickTimeline(t *testing.T) {
	tr := NewTracer(16)
	c := tr.Context(0)
	base := time.Now()
	// Hand-build spans with controlled durations via explicit starts.
	c.Span(SpanTick, 1, -1, base)
	slow := time.Now()
	time.Sleep(2 * time.Millisecond)
	c.Span(SpanTick, 2, -1, slow)
	tick, dur, ok := tr.SlowestTick()
	if !ok || tick != 2 || dur <= 0 {
		t.Fatalf("SlowestTick = (%d, %d, %v), want tick 2", tick, dur, ok)
	}
	var buf bytes.Buffer
	if err := tr.WriteSlowestTimeline(&buf); err != nil {
		t.Fatalf("WriteSlowestTimeline: %v", err)
	}
	if !strings.Contains(buf.String(), "tick 2") {
		t.Fatalf("timeline missing slowest tick:\n%s", buf.String())
	}
}

func TestNilObservabilityIsInert(t *testing.T) {
	var c *SpanCtx
	c.Span(SpanTick, 1, -1, time.Now()) // must not panic
	if c.Shard() != CoordShard {
		t.Fatalf("nil ctx shard = %d", c.Shard())
	}
	var p *Profiler
	e := p.Entry("x")
	if e != nil {
		t.Fatalf("nil profiler returned non-nil entry")
	}
	start, sampling := e.BeginSample()
	e.EndSample(start, sampling)
	e.AddCall(1, 2, 3)
	e.AddError()
	e.AddSkip()
	e.AddRetry()
	e.AddAbort()
	e.AddConflict()
	var tr *Tracer
	if tr.Context(0) != nil {
		t.Fatalf("nil tracer returned non-nil context")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer spans = %v", got)
	}
}

func TestProfilerAccounting(t *testing.T) {
	p := NewProfiler()
	e := p.Entry("behavior/pulser")
	if p.Entry("behavior/pulser") != e {
		t.Fatalf("Entry not idempotent")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				start, sampling := e.BeginSample()
				e.EndSample(start, sampling)
				e.AddCall(10, 2, 1)
			}
		}()
	}
	wg.Wait()
	e.AddError()
	e.AddSkip()
	e.AddRetry()
	e.AddAbort()
	e.AddConflict()
	rows := p.Rows()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Calls != 400 || r.Fuel != 4000 || r.Effects != 800 || r.Reads != 400 {
		t.Fatalf("row counters = %+v", r)
	}
	if r.Errors != 1 || r.Skips != 1 || r.Retries != 1 || r.Aborts != 1 || r.Conflicts != 1 {
		t.Fatalf("row event counters = %+v", r)
	}
	if r.Samples == 0 {
		t.Fatalf("400 calls produced no timing samples")
	}
	tbl := p.Table().String()
	if !strings.Contains(tbl, "behavior/pulser") {
		t.Fatalf("table missing entry:\n%s", tbl)
	}
}

func TestProfilerRowOrdering(t *testing.T) {
	p := NewProfiler()
	// b gets sampled time, a gets none: b must sort first.
	a := p.Entry("a")
	a.AddCall(1, 0, 0)
	b := p.Entry("b")
	for i := 0; i < 32; i++ {
		start, sampling := b.BeginSample()
		if sampling {
			time.Sleep(100 * time.Microsecond)
		}
		b.EndSample(start, sampling)
		b.AddCall(1, 0, 0)
	}
	rows := p.Rows()
	if len(rows) != 2 || rows[0].Name != "b" {
		t.Fatalf("rows not sorted by estimated time: %+v", rows)
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ticks_total").Add(42)
	if r.Counter("ticks_total").Load() != 42 {
		t.Fatalf("Counter not idempotent")
	}
	h := r.Histogram("tick ns") // name needs sanitizing
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	r.Gauge("entities", func() float64 { return 7 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE ticks_total counter\nticks_total 42\n",
		"# TYPE tick_ns summary\n",
		`tick_ns{quantile="0.5"}`,
		"tick_ns_sum 5050\ntick_ns_count 100\n",
		"# TYPE entities gauge\nentities 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if len(r.sortedNames()) != 3 {
		t.Fatalf("names = %v", r.sortedNames())
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"tick ns":         "tick_ns",
		"behavior/pulser": "behavior_pulser",
		"9lives":          "_lives",
		"ok_name:sub":     "ok_name:sub",
		"":                "_",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Fatalf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteTimelineUnknownTick(t *testing.T) {
	tr := NewTracer(4)
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf, 99); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if want := fmt.Sprintf("tick %d: no spans retained", 99); !strings.Contains(buf.String(), want) {
		t.Fatalf("got %q", buf.String())
	}
}
