package shard

import (
	"bytes"
	"strings"
	"testing"

	"gamedb/internal/obs"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// obsCascadeRun is cascadeRun with the full observability rig attached:
// a span tracer across every shard and its barrier, and the
// sampled per-behavior / per-rule profiler. Returns the rig so callers
// can assert it actually recorded something.
func obsCascadeRun(t *testing.T, shards, workers int) (uint64, int, *obs.Tracer, *obs.Profiler) {
	t.Helper()
	tracer := obs.NewTracer(obs.DefaultSpanCap)
	prof := obs.NewProfiler()
	rt, err := New(Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 1000, 1000),
		TickDT: 0.5, GhostBand: 25, Workers: workers,
		Tracer: tracer, Profile: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := SeedCascadeCrowd(rt, 200, 1000, 77, 30); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 40; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatalf("shards=%d workers=%d tick %d: %v", shards, workers, st.Tick, err)
		}
		for _, ws := range st.Shards {
			fired += ws.TriggerFired
		}
	}
	return rt.Hash(), fired, tracer, prof
}

// obsMingleRun is mingleRun with the observability rig attached.
func obsMingleRun(t *testing.T, shards, workers int) (uint64, int) {
	t.Helper()
	tracer := obs.NewTracer(obs.DefaultSpanCap)
	prof := obs.NewProfiler()
	rt, err := New(Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 25, Workers: workers,
		ScriptFuel: 1 << 20,
		Tracer:     tracer, Profile: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := SeedMingleCrowd(rt, 250, 400, 77, 30); err != nil {
		t.Fatal(err)
	}
	effects := 0
	for i := 0; i < 25; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatalf("shards=%d workers=%d tick %d: %v", shards, workers, st.Tick, err)
		}
		for _, ws := range st.Shards {
			effects += ws.Effects
		}
	}
	return rt.Hash(), effects
}

// TestObservabilityHashInvariantAcrossGrid proves the observability
// layer inert: with tracing and profiling fully enabled, both
// tick-pipeline workloads still land on the exact hash their
// un-instrumented runs produce, across the Shards × Workers grid. The
// cascade scenario is shard-count invariant, so every instrumented
// point must match the single plain baseline; mingle state depends on
// the shard count, so each instrumented point races its own plain run.
func TestObservabilityHashInvariantAcrossGrid(t *testing.T) {
	baseHash, baseFired := cascadeRun(t, 1, 1, "")
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			h, fired, tracer, prof := obsCascadeRun(t, shards, workers)
			if h != baseHash {
				t.Fatalf("cascade: obs-on hash diverged at shards=%d workers=%d: %x vs %x",
					shards, workers, h, baseHash)
			}
			if fired != baseFired {
				t.Fatalf("cascade: activations diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, fired, baseFired)
			}
			// Inert must not mean inoperative: the rig has to have
			// recorded real spans and real attribution.
			assertObsRecorded(t, shards, tracer, prof)

			mh, me := mingleRun(t, shards, workers, "")
			oh, oe := obsMingleRun(t, shards, workers)
			if oh != mh {
				t.Fatalf("mingle: obs-on hash diverged at shards=%d workers=%d: %x vs %x",
					shards, workers, oh, mh)
			}
			if oe != me {
				t.Fatalf("mingle: effect counts diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, oe, me)
			}
		}
	}
}

// assertObsRecorded fails unless the tracer holds tick, trigger-round,
// parallel-phase and barrier spans on every shard's track,
// and the profiler attributed calls to the scenario's behavior and at
// least one of its trigger rules.
func assertObsRecorded(t *testing.T, shards int, tracer *obs.Tracer, prof *obs.Profiler) {
	t.Helper()
	perShardTicks := make(map[int]int)
	rounds, barriers := 0, 0
	for _, s := range tracer.Spans() {
		switch s.Name {
		case obs.SpanTick:
			perShardTicks[s.Shard]++
		case obs.SpanTrigRnd:
			rounds++
		case obs.SpanBarrier:
			barriers++
		}
	}
	for i := 0; i < shards; i++ {
		if perShardTicks[i] == 0 {
			t.Fatalf("shards=%d: no tick spans recorded for shard %d", shards, i)
		}
	}
	if rounds == 0 {
		t.Fatalf("shards=%d: no trigger-round spans recorded", shards)
	}
	if barriers == 0 {
		t.Fatalf("shards=%d: no barrier spans recorded", shards)
	}
	behaviorCalls, ruleCalls := int64(0), int64(0)
	for _, r := range prof.Rows() {
		switch {
		case strings.HasPrefix(r.Name, "behavior/"):
			behaviorCalls += r.Calls
		case strings.HasPrefix(r.Name, "trigger/"):
			ruleCalls += r.Calls
		}
	}
	if behaviorCalls == 0 {
		t.Fatalf("shards=%d: profiler attributed no behavior calls", shards)
	}
	if ruleCalls == 0 {
		t.Fatalf("shards=%d: profiler attributed no trigger-rule calls", shards)
	}
}

// TestObservabilityInertUnderOCC pins the one pipeline corner the grid
// test leaves dark: OCC retry rounds. The contended beacon-claiming
// scenario runs under ConflictPolicy=occ with and without the rig, the
// two worlds must snapshot byte-identically, and the instrumented run
// must have attributed the contention — retry and conflict counts on
// the claimer behavior, plus occ.retry spans in the trace.
func TestObservabilityInertUnderOCC(t *testing.T) {
	run := func(trace *obs.SpanCtx, prof *obs.Profiler) *world.World {
		w := world.New(world.Config{
			Seed: 42, CellSize: 12, ScriptFuel: 1 << 40, TickDT: 0.5,
			Workers: 4, ConflictPolicy: world.ConflictOCC,
			Trace: trace, Profile: prof,
		})
		if err := SeedConflictWorld(w, 300, 16, 150, 1); err != nil {
			t.Fatal(err)
		}
		retries := 0
		for i := 0; i < 12; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatalf("tick %d: %v", i, err)
			}
			retries += st.EffectRetries
		}
		if retries == 0 {
			t.Fatal("scenario produced no OCC retries — not exercising the retry path")
		}
		return w
	}
	plain := run(nil, nil)
	tracer := obs.NewTracer(obs.DefaultSpanCap)
	prof := obs.NewProfiler()
	instrumented := run(tracer.Context(0), prof)

	ps, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	is, err := instrumented.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ps, is) {
		t.Fatal("obs-on OCC world state diverged from obs-off")
	}

	occSpans := 0
	for _, s := range tracer.Spans() {
		if s.Name == obs.SpanOCCRetry {
			occSpans++
		}
	}
	if occSpans == 0 {
		t.Fatal("no occ.retry spans recorded")
	}
	// claim is fully compilable: its calls and its retries belong on
	// the same row, the compiled one, and the interpreter twin — which
	// would mean some invocation fell back — must not exist.
	var claim []obs.ProfRow
	for _, r := range prof.Rows() {
		if r.Name == "behavior/claim" {
			claim = append(claim, r)
		}
	}
	if len(claim) != 1 || !claim[0].Compiled {
		t.Fatalf("behavior/claim rows = %+v, want exactly the compiled one", claim)
	}
	if claim[0].Calls == 0 {
		t.Fatal("profiler attributed no calls to behavior/claim")
	}
	if claim[0].Retries == 0 {
		t.Fatal("profiler attributed no OCC retries to the row that counted the calls")
	}
	// No Conflicts assertion: conflicting assignments resolve inside the
	// merge here, and every record still targets a live beacon — the
	// per-record drop sites (despawn races, resolve failures) that feed
	// the conflict attribution never fire in this scenario.
}
