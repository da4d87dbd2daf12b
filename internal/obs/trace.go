// Package obs is the runtime observability layer for the state-effect
// tick pipeline: span-based tick tracing (per-shard, per-phase, ring
// buffered, exportable as Chrome trace_event JSON), sampled
// per-behavior / per-rule profiling, and a process-wide metrics
// registry servable as Prometheus text plus net/http/pprof.
//
// Everything here is designed to be inert with respect to world state:
// recording a span or a profile sample reads clocks and bumps atomics
// but never touches tables, effect ordering, or RNG streams, so the
// workers×shards hash-invariance guarantees hold with observability
// enabled (the grid tests pin this). All hooks are nil-safe: a nil
// *SpanCtx, *Profiler or *ProfEntry makes every method a no-op, so
// instrumented code paths pay one nil check when observability is off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span names recorded by the world and shard instrumentation. Phase
// spans nest inside the enclosing SpanTick.
const (
	SpanTick     = "tick"          // one world's whole Step
	SpanQuery    = "query"         // parallel read-only query phase
	SpanApply    = "apply"         // deterministic effect merge + apply
	SpanTrigger  = "trigger"       // whole trigger drain
	SpanTrigRnd  = "trigger.round" // one cascade round (Round = round index)
	SpanOCCRetry = "occ.retry"     // one OCC re-run round (Round = attempt)
	SpanBarrier  = "barrier"       // shard runtime's tick barrier
	SpanParallel = "parallel"      // shard runtime's parallel phase
	// Effect-forwarding exchange phases of the shard runtime's barrier:
	// gathering and routing outbound RemoteEffectBatches to their owning
	// shards, then validating and merging foreign records (plus the
	// cross-shard OCC re-runs the verdicts request).
	SpanForward     = "forward"
	SpanRemoteMerge = "remote-merge"
	// SpanReconcile is the barrier's ghost-refresh phase.
	SpanReconcile = "reconcile"
	// Wire-transport phases of a peer barrier: SpanWire is the pipelined
	// encode+send of outbound barrier frames, launched concurrently so it
	// lands inside (not after) SpanReconcile; SpanWireRecv is the
	// blocking wait for inbound frames.
	SpanWire     = "wire"
	SpanWireRecv = "wire.recv"
)

// CoordShard is the shard index of spans recorded outside any one shard
// world's track. The shard runtime records none (each peer records its
// barrier on its own shard's track); a host can use it for its own.
const CoordShard = -1

// DefaultSpanCap is the per-shard ring capacity when NewTracer is given
// a non-positive one: with ~8 spans per tick it retains on the order of
// a thousand ticks per shard.
const DefaultSpanCap = 1 << 13

// Span is one recorded phase interval. Start is nanoseconds since the
// owning Tracer's epoch; Round is the trigger-round or OCC-attempt
// index, -1 for non-round spans.
type Span struct {
	Name  string
	Shard int
	Tick  int64
	Round int
	Start int64
	Dur   int64
}

// End returns the span's end offset in nanoseconds since the epoch.
func (s Span) End() int64 { return s.Start + s.Dur }

// Tracer owns the per-shard span contexts of one traced process. Spans
// land in fixed-capacity rings (oldest overwritten), so a tracer's
// memory is bounded no matter how long the run.
type Tracer struct {
	epoch time.Time
	cap   int

	mu   sync.Mutex
	ctxs []*SpanCtx
}

// NewTracer builds a tracer whose per-shard rings hold spanCap spans
// (DefaultSpanCap when spanCap <= 0).
func NewTracer(spanCap int) *Tracer {
	if spanCap <= 0 {
		spanCap = DefaultSpanCap
	}
	return &Tracer{epoch: time.Now(), cap: spanCap}
}

// Context returns shard's span context, creating it on first use.
// Contexts are stable: the same shard index always yields the same
// context, so a runtime can wire them once at construction.
func (t *Tracer) Context(shard int) *SpanCtx {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.ctxs {
		if c.shard == shard {
			return c
		}
	}
	c := &SpanCtx{tracer: t, shard: shard, ring: make([]Span, 0, t.cap)}
	t.ctxs = append(t.ctxs, c)
	return c
}

// SpanCtx is one shard's span sink. During a tick exactly one goroutine
// records into a context (each shard world steps single-threaded at the
// phase level), but the mutex makes concurrent export — the live /trace
// endpoint reading while the sim ticks — safe. The lock is uncontended
// a handful of times per tick, which is noise next to the phases being
// measured.
type SpanCtx struct {
	tracer *Tracer
	shard  int

	mu      sync.Mutex
	ring    []Span
	next    int  // overwrite cursor once the ring is full
	wrapped bool // ring has overwritten at least one span
}

// Shard returns the context's shard index.
func (c *SpanCtx) Shard() int {
	if c == nil {
		return CoordShard
	}
	return c.shard
}

// Span records one completed interval: started at start, ending now.
// Nil-safe; callers bracket a phase with `t0 := time.Now()` and a
// deferred-or-inline `ctx.Span(name, tick, round, t0)`.
func (c *SpanCtx) Span(name string, tick int64, round int, start time.Time) {
	if c == nil {
		return
	}
	s := Span{
		Name:  name,
		Shard: c.shard,
		Tick:  tick,
		Round: round,
		Start: start.Sub(c.tracer.epoch).Nanoseconds(),
		Dur:   time.Since(start).Nanoseconds(),
	}
	c.mu.Lock()
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, s)
	} else {
		c.ring[c.next] = s
		c.next++
		if c.next == cap(c.ring) {
			c.next = 0
		}
		c.wrapped = true
	}
	c.mu.Unlock()
}

// snapshot appends the context's retained spans, oldest first.
func (c *SpanCtx) snapshot(dst []Span) []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wrapped {
		dst = append(dst, c.ring[c.next:]...)
		dst = append(dst, c.ring[:c.next]...)
		return dst
	}
	return append(dst, c.ring...)
}

// Spans returns every retained span across all contexts, sorted by
// start offset (ties by shard then name, for deterministic export).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ctxs := append([]*SpanCtx(nil), t.ctxs...)
	t.mu.Unlock()
	var out []Span
	for _, c := range ctxs {
		out = c.snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// chromeEvent is one trace_event record in the Chrome/Perfetto JSON
// object format: complete events ("ph":"X") with microsecond ts/dur.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace JSON object.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Meta        string        `json:"displayTimeUnit,omitempty"`
}

// WriteChromeTrace exports every retained span as Chrome trace_event
// JSON (load in chrome://tracing or ui.perfetto.dev). Each shard maps
// to one thread track; the coordinator's barrier spans map to a track
// of their own (tid after the shards).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	maxShard := 0
	for _, s := range spans {
		if s.Shard > maxShard {
			maxShard = s.Shard
		}
	}
	tr := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), Meta: "ms"}
	for _, s := range spans {
		tid := s.Shard
		if tid == CoordShard {
			tid = maxShard + 1 // coordinator track after the shard tracks
		}
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "tick",
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			PID:  0,
			TID:  tid,
			Args: map[string]any{"tick": s.Tick},
		}
		if s.Round >= 0 {
			ev.Args["round"] = s.Round
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}

// SlowestTick scans the retained SpanTick spans and returns the tick
// number whose slowest shard span ran longest, with that duration.
// ok is false when no tick spans were recorded.
func (t *Tracer) SlowestTick() (tick int64, dur int64, ok bool) {
	for _, s := range t.Spans() {
		if s.Name != SpanTick {
			continue
		}
		if !ok || s.Dur > dur {
			tick, dur, ok = s.Tick, s.Dur, true
		}
	}
	return tick, dur, ok
}

// WriteTimeline prints a human-readable timeline of one tick's spans:
// every retained span of that tick, sorted by start, with offsets
// relative to the tick's earliest span. The shard column prints "coord"
// for coordinator (barrier) spans.
func (t *Tracer) WriteTimeline(w io.Writer, tick int64) error {
	var spans []Span
	for _, s := range t.Spans() {
		if s.Tick == tick {
			spans = append(spans, s)
		}
	}
	if len(spans) == 0 {
		_, err := fmt.Fprintf(w, "tick %d: no spans retained\n", tick)
		return err
	}
	base := spans[0].Start
	for _, s := range spans {
		if s.Start < base {
			base = s.Start
		}
	}
	if _, err := fmt.Fprintf(w, "tick %d timeline:\n", tick); err != nil {
		return err
	}
	for _, s := range spans {
		shard := fmt.Sprintf("shard %d", s.Shard)
		if s.Shard == CoordShard {
			shard = "coord"
		}
		round := ""
		if s.Round >= 0 {
			round = fmt.Sprintf(" (round %d)", s.Round)
		}
		if _, err := fmt.Fprintf(w, "  %-8s %-14s +%8.3fms %9.3fms%s\n",
			shard, s.Name, float64(s.Start-base)/1e6, float64(s.Dur)/1e6, round); err != nil {
			return err
		}
	}
	return nil
}

// WriteSlowestTimeline prints the timeline of the slowest retained tick
// (see SlowestTick); a no-op note when nothing was recorded.
func (t *Tracer) WriteSlowestTimeline(w io.Writer) error {
	tick, dur, ok := t.SlowestTick()
	if !ok {
		_, err := fmt.Fprintln(w, "trace: no tick spans recorded")
		return err
	}
	if _, err := fmt.Fprintf(w, "slowest retained tick: %d (%.3fms)\n", tick, float64(dur)/1e6); err != nil {
		return err
	}
	return t.WriteTimeline(w, tick)
}
