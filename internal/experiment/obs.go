package experiment

import (
	"fmt"
	"math"

	"gamedb/internal/metrics"
	"gamedb/internal/obs"
	"gamedb/internal/shard"
	"gamedb/internal/world"
)

// obsScenario is one registry crowd the observability overhead is
// priced on, with its size and world settings.
type obsScenario struct {
	name     string
	units    int
	side     float64
	cellSize float64
	speed    float64
	workers  int
}

// buildObsWorld seeds the scenario's crowd into one world with the
// observability hooks optionally attached.
func buildObsWorld(sc obsScenario, trace *obs.SpanCtx, prof *obs.Profiler) *world.World {
	w := world.New(world.Config{
		Seed: 42, CellSize: sc.cellSize, ScriptFuel: 1 << 40, TickDT: 0.5,
		Workers: sc.workers, Trace: trace, Profile: prof,
	})
	crowd := shard.Crowd{Units: sc.units, Side: sc.side, Seed: 1, Speed: sc.speed}
	if err := shard.MustLookup(sc.name).Seed(shard.WorldSeeder{World: w}, crowd); err != nil {
		panic(fmt.Sprintf("E18: %v", err))
	}
	return w
}

// E18ObservabilityOverhead prices the observability layer: the
// trigger-cascade crowd and the apply-heavy mingle crowd are ticked
// with observability off and with the full rig on (span tracer attached
// plus sampled per-behavior/per-rule profiler), and the table reports
// the tick-time delta. Each mode runs `reps` fresh worlds and keeps the
// fastest run, so the overhead column prices the instrumentation, not
// scheduler noise; the target is < 5% of tick time. The obs-on rows
// also report what the money bought: spans retained and profiled units
// attributed.
func E18ObservabilityOverhead(quick bool) *metrics.Table {
	t := metrics.NewTable("E18 — observability overhead: tracing + profiling on vs off",
		"scenario", "obs", "tick", "entities/sec", "overhead", "spans", "profiled units")
	t.Note = "overhead = obs-on tick time vs obs-off (fastest of reps); target < 5%"
	ticks := pick(quick, 5, 30)
	reps := pick(quick, 2, 5)
	scenarios := []obsScenario{
		{
			name:  "cascade",
			units: pick(quick, 400, 2000), side: 1000, cellSize: 16, speed: 10, workers: 4,
		},
		{
			name:  "mingle",
			units: pick(quick, 500, 2500), side: 160 * math.Sqrt(pick(quick, 500.0, 2500.0)/2000),
			cellSize: 8, speed: 4, workers: 4,
		},
	}
	run := func(sc obsScenario, trace *obs.SpanCtx, prof *obs.Profiler) float64 {
		w := buildObsWorld(sc, trace, prof)
		elapsed := timeOp(func() {
			for i := 0; i < ticks; i++ {
				st, err := w.Step()
				if err != nil {
					panic(fmt.Sprintf("E18: tick %d: %v", i, err))
				}
				if st.ScriptErrors > 0 {
					panic(fmt.Sprintf("E18: %v", w.LastScriptError))
				}
			}
		})
		return float64(elapsed.Nanoseconds()) / float64(ticks)
	}
	for _, sc := range scenarios {
		// Off and on reps interleave so clock drift and scheduler noise
		// land on both modes alike; each mode keeps its fastest rep.
		offNS, onNS := math.Inf(1), math.Inf(1)
		var tracer *obs.Tracer
		var prof *obs.Profiler
		for r := 0; r < reps; r++ {
			offNS = math.Min(offNS, run(sc, nil, nil))
			// Fresh rig per rep: each run pays full first-touch cost
			// (entry registration, ring growth), the honest price of
			// switching observability on.
			tr := obs.NewTracer(obs.DefaultSpanCap)
			pr := obs.NewProfiler()
			if ns := run(sc, tr.Context(0), pr); ns < onNS {
				onNS, tracer, prof = ns, tr, pr
			}
		}
		spans := len(tracer.Spans())
		units := len(prof.Rows())
		overhead := 100 * (onNS - offNS) / offNS
		t.AddRow(sc.name, "off", metrics.Fdur(offNS),
			metrics.Fnum(float64(sc.units)*1e9/offNS), "—", "—", "—")
		t.AddRow(sc.name, "on", metrics.Fdur(onNS),
			metrics.Fnum(float64(sc.units)*1e9/onNS),
			fmt.Sprintf("%+.1f%%", overhead),
			fmt.Sprint(spans), fmt.Sprint(units))
	}
	return t
}
