package shard

import (
	"bytes"
	"strings"
	"testing"

	"gamedb/internal/obs"
	"gamedb/internal/world"
)

// assertObsRecorded fails unless the tracer holds tick spans on every
// shard's track and barrier spans, and the profiler attributed calls to
// the crowd's behavior — plus, for a crowd with triggers, trigger-round
// spans and calls to at least one of its rules.
func assertObsRecorded(t *testing.T, shards int, tracer *obs.Tracer, prof *obs.Profiler, triggers bool) {
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
	if triggers && rounds == 0 {
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
	if triggers && ruleCalls == 0 {
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
		if err := conflictScenario.Seed(WorldSeeder{w}, Crowd{Units: 300, Side: 150, Seed: 1, Beacons: 16}); err != nil {
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
	// claim's calls and its retries belong on its one row.
	var claim []obs.ProfRow
	for _, r := range prof.Rows() {
		if r.Name == "behavior/claim" {
			claim = append(claim, r)
		}
	}
	if len(claim) != 1 {
		t.Fatalf("behavior/claim rows = %+v, want exactly one", claim)
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
