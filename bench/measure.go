package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/wire"
)

// metricDef names one metric; BENCHMARK.json mirrors these tables and
// the smoke test holds the two together. bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"tick_ms_p50", "ms", "lower", 0.25},
	{"tick_ms_p90", "ms", "lower", 0.25},
	{"allocs_per_tick", "count", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// setupFloorS is the absolute slack -repeat allows setup_s on top of
// its bound: set-up is tens of milliseconds, where one GC cycle is 25%.
const setupFloorS = 0.05

// Per-layer metrics. The *_ms ones are per-tick series (p50 of the
// element-wise minimum across repetitions); the rest are one number per
// repetition (median across repetitions): counts are means per measured
// tick unless the comment says total.
var perLayer = []metricDef{
	{"world.query_ms", "ms", "lower", 0},
	{"world.apply_ms", "ms", "lower", 0},
	{"world.trigger_ms", "ms", "lower", 0},
	{"world.script_calls", "count", "lower", 0},
	{"world.effects", "count", "lower", 0},
	{"world.trigger_rounds", "count", "lower", 0},
	{"world.effect_retries", "count", "lower", 0},
	{"world.compiled_frac", "ratio", "higher", 0},
	{"shard.parallel_ms", "ms", "lower", 0},
	{"shard.barrier_ms", "ms", "lower", 0},
	{"shard.reconcile_ms", "ms", "lower", 0},
	{"shard.handoffs", "count", "lower", 0},
	{"shard.ghost_ships", "count", "lower", 0},
	{"shard.effects_forwarded", "count", "lower", 0},
	{"shard.remote_invalidations", "count", "lower", 0},
	{"shard.parallel_eff", "ratio", "higher", 0},
	{"wire.bytes_per_tick", "bytes", "lower", 0},
	{"wire.frames_per_tick", "count", "lower", 0},
	{"replica.pump_ms", "ms", "lower", 0},
	{"replica.flush_ms", "ms", "lower", 0},
	{"replica.msgs_per_tick", "count", "higher", 0},
	{"replica.bytes_per_tick", "bytes", "lower", 0},
	{"replica.drops", "count", "lower", 0},         // total
	{"replica.tier_degrades", "count", "lower", 0}, // total
	{"replica.pump_drift", "ratio", "lower", 0},
	{"replica.stale_ticks_p99", "ticks", "lower", 0},
	{"proc.heap_mb", "MB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0}, // total
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.unattributed_pct", "%", "lower", 0},
}

// rep is one repetition: a fresh build of the workload, its warm-up and
// its measured window.
type rep struct {
	traced bool
	setupS float64
	// series holds the per-measured-tick times in ms: "tick" (the whole
	// host-loop body) and every per-layer *_ms metric by name.
	series map[string][]float64
	// scalar holds the one-number-per-repetition metrics by name, plus
	// "allocs_per_tick".
	scalar map[string]float64

	hash        uint64
	ops, failed int64
	// fan-out totals of the window, compared across repetitions.
	msgs, bytes, drops int64
	// layers is a traced repetition's span self-time table.
	layers layerTable
}

// tickSample is what one host-loop body returns and costs.
type tickSample struct {
	st                      shard.StepStats
	fan                     replica.TickReport
	pumpNS, flushNS, tickNS int64
}

// tick runs one host-loop body — Step, plus Pump and FlushTick where a
// hub is attached — timing each call from outside and, when host is
// non-nil, recording a span around it. Client window drift is load
// generation and runs after the clock stops.
func (s *subject) tick(host *obs.SpanCtx) (tickSample, error) {
	var ts tickSample
	t0 := time.Now()
	st, err := s.step()
	if err != nil {
		return ts, err
	}
	host.Span(spanStep, st.Tick, -1, t0)
	ts.st = st
	if s.pump != nil {
		t1 := time.Now()
		s.pump.Pump()
		ts.pumpNS = time.Since(t1).Nanoseconds()
		host.Span(spanPump, st.Tick, -1, t1)
		t2 := time.Now()
		ts.fan = s.hub.FlushTick()
		ts.flushNS = time.Since(t2).Nanoseconds()
		host.Span(spanFlush, st.Tick, -1, t2)
	}
	ts.tickNS = time.Since(t0).Nanoseconds()
	host.Span(spanHost, st.Tick, -1, t0)
	if s.pump != nil {
		s.moveClients()
	}
	return ts, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// window accumulates what the measured ticks of one repetition return,
// across the repetition's lifetimes.
type window struct {
	calls, compiled, effects, rounds, retries, fired int
	handoffs, ships, forwarded, invalidations        int
	scriptFail, triggerFail, aborts                  int
	shardBusyNS, parallelNS                          int64
	msgs, bytes, drops, degrades                     int64
	wireBytes, wireFrames                            int64
	mallocs, gcCycles                                uint64
	staleP99                                         float64
	// cols are the per-tick series, in seriesNames order, allocated
	// before the first window opens so that the harness adds nothing to
	// allocs_per_tick.
	cols [len(seriesNames)][]float64
}

var seriesNames = [...]string{
	"tick", "world.query_ms", "world.apply_ms", "world.trigger_ms",
	"shard.parallel_ms", "shard.barrier_ms", "shard.reconcile_ms",
	"replica.pump_ms", "replica.flush_ms",
}

// lifetimeSeed derives lifetime l's seed from the run's.
func lifetimeSeed(seed int64, l int) int64 { return seed + int64(l)*104729 }

// runLifetime builds the workload (timed as set-up), warms it up,
// measures w.ticks ticks into win and returns the final world hash and
// the heap left live by the still-reachable subject.
func (w *workload) runLifetime(seed int64, tr *obs.Tracer, win *window) (setupS float64, hash uint64, heapMB float64, err error) {
	host := tr.Context(hostTrack)
	t0 := time.Now()
	s, err := w.build(seed, tr)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("build: %w", err)
	}
	defer s.close()
	setupS = time.Since(t0).Seconds()

	for i := 0; i < w.warmup; i++ {
		if _, err := s.tick(host); err != nil {
			return 0, 0, 0, fmt.Errorf("warm-up tick %d: %w", i+1, err)
		}
	}

	var wire0 wire.Stats
	if s.wireStats != nil {
		wire0 = s.wireStats()
	}
	var degr0 int64
	if s.hub != nil {
		s.hub.Staleness.Reset()
		degr0 = s.hub.DegradeTotal.Load()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < w.ticks; i++ {
		ts, err := s.tick(host)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("tick %d: %w", w.warmup+i+1, err)
		}
		var q, a, tr int64
		for _, sh := range ts.st.Shards {
			q += sh.QueryNS
			a += sh.ApplyNS
			tr += sh.TriggerNS
			win.calls += sh.ScriptCalls
			win.compiled += sh.CompiledCalls
			win.effects += sh.Effects
			win.rounds += sh.TriggerRounds
			win.retries += sh.EffectRetries
			win.fired += sh.TriggerFired
			win.scriptFail += sh.ScriptErrors + sh.ScriptSkips
			win.triggerFail += sh.TriggerErrors + sh.TriggerSkips
			win.aborts += sh.EffectAborts
		}
		win.handoffs += ts.st.Handoffs
		win.ships += ts.st.GhostShips
		win.forwarded += ts.st.EffectsForwarded
		win.invalidations += ts.st.RemoteInvalidations
		win.shardBusyNS += q + a + tr
		win.parallelNS += ts.st.ParallelNS
		win.msgs += ts.fan.Msgs
		win.bytes += ts.fan.Bytes
		win.drops += ts.fan.Drops
		for k, v := range [len(seriesNames)]int64{
			ts.tickNS, q, a, tr,
			ts.st.ParallelNS, ts.st.BarrierNS, ts.st.ReconcileNS,
			ts.pumpNS, ts.flushNS,
		} {
			win.cols[k] = append(win.cols[k], ms(v))
		}
	}
	runtime.ReadMemStats(&m1)
	win.mallocs += m1.Mallocs - m0.Mallocs
	win.gcCycles += uint64(m1.NumGC - m0.NumGC)
	if s.wireStats != nil {
		ws := s.wireStats()
		win.wireBytes += ws.BytesOut - wire0.BytesOut
		win.wireFrames += ws.FramesOut - wire0.FramesOut
	}
	if s.hub != nil {
		win.degrades += s.hub.DegradeTotal.Load() - degr0
		win.staleP99 = max(win.staleP99, s.hub.Staleness.Quantile(0.99))
	}
	if hash, err = s.hash(); err != nil {
		return 0, 0, 0, fmt.Errorf("hash: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return setupS, hash, float64(m1.HeapAlloc) / (1 << 20), nil
}

// foldHash chains the lifetimes' world hashes into one (FNV-1a step).
func foldHash(h, next uint64) uint64 { return (h ^ next) * 1099511628211 }

// runRep runs one repetition: every lifetime of the workload, each a
// fresh build with its own derived seed. A non-nil tr makes it a traced
// repetition; the caller reads the spans out of tr afterwards.
func (w *workload) runRep(seed int64, tr *obs.Tracer) (*rep, error) {
	runtime.GC() // start every repetition from the same heap
	r := &rep{traced: tr != nil, series: map[string][]float64{}, scalar: map[string]float64{}}
	var win window
	for k := range win.cols {
		win.cols[k] = make([]float64, 0, w.measured())
	}
	sc := r.scalar
	for l := 0; l < w.lifetimes; l++ {
		setupS, hash, heapMB, err := w.runLifetime(lifetimeSeed(seed, l), tr, &win)
		if err != nil {
			return nil, fmt.Errorf("lifetime %d: %w", l, err)
		}
		r.setupS += setupS
		r.hash = foldHash(r.hash, hash)
		sc["proc.heap_mb"] = max(sc["proc.heap_mb"], heapMB)
	}
	for k, name := range seriesNames {
		r.series[name] = win.cols[k]
	}

	n := float64(w.measured())
	sc["allocs_per_tick"] = float64(win.mallocs) / n
	sc["proc.gc_cycles"] = float64(win.gcCycles)
	sc["world.script_calls"] = float64(win.calls) / n
	sc["world.effects"] = float64(win.effects) / n
	sc["world.trigger_rounds"] = float64(win.rounds) / n
	sc["world.effect_retries"] = float64(win.retries) / n
	if win.calls > 0 {
		sc["world.compiled_frac"] = float64(win.compiled) / float64(win.calls)
	}
	sc["shard.handoffs"] = float64(win.handoffs) / n
	sc["shard.ghost_ships"] = float64(win.ships) / n
	sc["shard.effects_forwarded"] = float64(win.forwarded) / n
	sc["shard.remote_invalidations"] = float64(win.invalidations) / n
	if win.parallelNS > 0 {
		sc["shard.parallel_eff"] = float64(win.shardBusyNS) / (float64(win.parallelNS) * float64(runtime.GOMAXPROCS(0)))
	}
	sc["wire.bytes_per_tick"] = float64(win.wireBytes) / n
	sc["wire.frames_per_tick"] = float64(win.wireFrames) / n
	sc["replica.msgs_per_tick"] = float64(win.msgs) / n
	sc["replica.bytes_per_tick"] = float64(win.bytes) / n
	sc["replica.drops"] = float64(win.drops)
	sc["replica.tier_degrades"] = float64(win.degrades)
	sc["replica.stale_ticks_p99"] = win.staleP99
	r.msgs, r.bytes, r.drops = win.msgs, win.bytes, win.drops
	// An operation is a tick, a behavior or trigger invocation, or a
	// message the hub handled; it fails when it errors, is skipped for
	// fuel, aborts under occ, or is dropped from a client queue.
	r.ops = int64(w.measured()+win.calls+win.fired) + win.msgs + win.drops
	r.failed = int64(win.scriptFail+win.triggerFail+win.aborts) + win.drops
	return r, nil
}

// run accumulates one workload's repetitions.
type run struct {
	w   *workload
	opt options

	oracle   uint64
	oracleS  float64
	reps     []*rep
	measured float64 // seconds of measured window so far
}

// newRun runs the 1×1 oracle, outside every timed section.
func newRun(w *workload, opt options) (*run, error) {
	t0 := time.Now()
	h, err := w.oracleHash(opt.seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &run{w: w, opt: opt, oracle: h, oracleS: time.Since(t0).Seconds()}, nil
}

func (r *run) needsMore() bool {
	return len(r.reps) < minReps || r.measured < r.opt.seconds
}

// addRep runs the next repetition; under -trace every second one is
// traced, so the two kinds see the same drift of the machine. A traced
// repetition's spans are folded into its layer table and written out as
// Chrome trace_event JSON at once (between repetitions, outside every
// timed window), then released: a tracer kept alive would enlarge the
// live heap the Go GC paces off and make the untraced repetitions beside
// it collect half as often as they do without -trace.
func (r *run) addRep() error {
	var tr *obs.Tracer
	if r.opt.trace && len(r.reps)%2 == 1 {
		// A track records at most a dozen spans per tick (a shard's tick,
		// query, apply, trigger and cascade rounds); 16 keeps every span
		// of the repetition without the rings themselves — live heap
		// the GC paces off — growing past a few hundred KB.
		tr = obs.NewTracer(16 * (r.w.warmup + r.w.ticks) * r.w.lifetimes)
	}
	rp, err := r.w.runRep(r.opt.seed, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		rp.layers = buildLayerTable(tr.Spans(), r.w.warmup)
		if err := writeTrace(tr, r.opt.traceDir, r.w.name); err != nil {
			return err
		}
	}
	r.reps = append(r.reps, rp)
	for _, v := range rp.series["tick"] {
		r.measured += v / 1e3
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Bound is 0 for per-layer metrics. Spread is (max − min) / median
	// of the repetitions' own values; Unresolved marks Spread > Bound.
	Bound      float64 `json:"bound"`
	Spread     float64 `json:"spread"`
	Unresolved bool    `json:"unresolved"`
}

// spanRow is one line of the traced layer table.
type spanRow struct {
	Name          string  `json:"name"`
	SelfMSPerTick float64 `json:"self_ms_per_tick"`
}

// result is one workload's report.
type result struct {
	Name       string    `json:"name"`
	Why        string    `json:"why"`
	Units      int       `json:"units"`
	Clients    int       `json:"clients"`
	Warmup     int       `json:"warmup_ticks"`
	Ticks      int       `json:"ticks"`
	Lifetimes  int       `json:"lifetimes"`
	Reps       int       `json:"reps"`
	TracedReps int       `json:"traced_reps"`
	Correct    bool      `json:"correct"`
	Problems   []string  `json:"problems"`
	Hash       string    `json:"hash"`
	OracleS    float64   `json:"oracle_s"`
	Ops        int64     `json:"ops"`
	FailedOps  int64     `json:"failed_ops"`
	EndToEnd   []metric  `json:"end_to_end"`
	PerLayer   []metric  `json:"per_layer"`
	Spans      []spanRow `json:"spans"`
}

// seriesOf collects one per-tick series across repetitions.
func seriesOf(reps []*rep, name string) [][]float64 {
	out := make([][]float64, len(reps))
	for i, r := range reps {
		out[i] = r.series[name]
	}
	return out
}

// tickMetric reports quantile p of the element-wise per-tick minimum of
// one series, with the spread of the repetitions' own quantiles.
func tickMetric(def metricDef, reps []*rep, series string, p float64) (metric, error) {
	all := seriesOf(reps, series)
	v, err := percentile(tickMin(all), p)
	if err != nil {
		return metric{}, fmt.Errorf("%s: %w", def.name, err)
	}
	own := make([]float64, len(all))
	for i, s := range all {
		if own[i], err = percentile(s, p); err != nil {
			return metric{}, fmt.Errorf("%s: %w", def.name, err)
		}
	}
	sp := spread(own)
	return metric{def.name, def.unit, v, def.bound, sp, unresolved(sp, def.bound)}, nil
}

// scalarMetric reports the median across repetitions of one
// per-repetition number.
func scalarMetric(def metricDef, reps []*rep, get func(*rep) float64) metric {
	own := make([]float64, len(reps))
	for i, r := range reps {
		own[i] = get(r)
	}
	sp := spread(own)
	return metric{def.name, def.unit, median(own), def.bound, sp, unresolved(sp, def.bound)}
}

// result checks the repetitions against each other and the oracle and
// folds them into the reported metrics. End-to-end and returned-stats
// layer metrics come from the untraced repetitions only.
func (r *run) result() (*result, error) {
	w := r.w
	var plain, traced []*rep
	for _, rp := range r.reps {
		if rp.traced {
			traced = append(traced, rp)
		} else {
			plain = append(plain, rp)
		}
	}
	first := r.reps[0]
	res := &result{
		Name: w.name, Why: w.why, Units: w.units, Clients: w.clients,
		Warmup: w.warmup, Ticks: w.ticks, Lifetimes: w.lifetimes,
		Reps: len(r.reps), TracedReps: len(traced),
		Correct: true, Hash: fmt.Sprintf("%016x", first.hash),
		OracleS: r.oracleS, Ops: first.ops, FailedOps: first.failed,
	}
	fail := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	for i, rp := range r.reps {
		if rp.hash != r.oracle {
			fail("rep %d: world hash %016x differs from the 1x1 oracle's %016x", i, rp.hash, r.oracle)
		}
		if !near(rp.msgs, first.msgs) || !near(rp.bytes, first.bytes) || rp.drops != first.drops {
			fail("rep %d: fan-out totals msgs/bytes/drops %d/%d/%d differ from rep 0's %d/%d/%d",
				i, rp.msgs, rp.bytes, rp.drops, first.msgs, first.bytes, first.drops)
		}
	}

	for _, def := range endToEnd {
		var m metric
		var err error
		switch def.name {
		case "tick_ms_p50":
			m, err = tickMetric(def, plain, "tick", 0.50)
		case "tick_ms_p90":
			m, err = tickMetric(def, plain, "tick", 0.90)
		case "setup_s":
			m = scalarMetric(def, plain, func(rp *rep) float64 { return rp.setupS })
		default:
			m = scalarMetric(def, plain, func(rp *rep) float64 { return rp.scalar[def.name] })
		}
		if err != nil {
			return nil, err
		}
		res.EndToEnd = append(res.EndToEnd, m)
	}

	var lt layerTable
	if len(traced) > 0 {
		lt = traced[len(traced)-1].layers
		for name, ns := range lt.selfNS {
			res.Spans = append(res.Spans, spanRow{name, ms(ns) / float64(w.measured())})
		}
		sortSpanRows(res.Spans)
	}
	for _, def := range perLayer {
		var m metric
		switch {
		case def.name == "replica.pump_drift":
			m = metric{Name: def.name, Unit: def.unit, Value: drift(tickMin(seriesOf(plain, "replica.pump_ms")), w.lifetimes)}
		case def.name == "obs.trace_overhead_pct":
			if len(traced) == 0 {
				continue
			}
			on, err := tickMetric(def, traced, "tick", 0.50)
			if err != nil {
				return nil, err
			}
			off := find(res.EndToEnd, "tick_ms_p50")
			// The untraced spread rides along: an overhead inside it
			// (negative ones included) is noise.
			m = metric{Name: def.name, Unit: def.unit, Value: (on.Value - off.Value) / off.Value * 100, Spread: off.Spread}
		case def.name == "obs.unattributed_pct":
			if len(traced) == 0 {
				continue
			}
			m = metric{Name: def.name, Unit: def.unit, Value: float64(lt.unattributed) / float64(lt.hostNS) * 100}
		case def.unit == "ms":
			var err error
			if m, err = tickMetric(def, plain, def.name, 0.50); err != nil {
				return nil, err
			}
		default:
			m = scalarMetric(def, plain, func(rp *rep) float64 { return rp.scalar[def.name] })
		}
		res.PerLayer = append(res.PerLayer, m)
	}
	return res, nil
}

// fanTolerance is how far a repetition's delivered fan-out totals may
// sit from repetition 0's. They do not repeat exactly: a client queue
// is filled in Go map-iteration order (replica.Hub walks cellEnts), so
// with wire-sized messages the byte budget cuts the drain at a
// different message from run to run — a few messages in twenty million.
const fanTolerance = 1e-3

func near(a, b int64) bool {
	return math.Abs(float64(a-b)) <= fanTolerance*float64(max(a, b))
}

// drift is the median of a lifetime's last quarter over the median of
// its first, 1.0 for a stationary layer; a series of several lifetimes
// reports the median of their drifts.
func drift(v []float64, lifetimes int) float64 {
	per := len(v) / lifetimes
	q := per / 4
	var ds []float64
	for l := 0; l < lifetimes && q > 0; l++ {
		life := v[l*per : (l+1)*per]
		if head := median(life[:q]); head > 0 {
			ds = append(ds, median(life[per-q:])/head)
		}
	}
	return median(ds)
}

// writeTrace writes one traced repetition's spans — the library's and
// the host's, one tracer — as Chrome trace_event JSON; each traced
// repetition of a workload overwrites the last.
func writeTrace(tr *obs.Tracer, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
