package world

import (
	"bytes"
	"fmt"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// compiledCrowdPack is a fully compilable workload: flocking math over
// nearby/get/move_toward/add plus a per-entity rand jitter, so the
// compiled path must reproduce the interpreter's effect records AND its
// deterministic rand stream bit-for-bit.
const compiledCrowdPack = `
<contentpack name="compiled-crowd">
  <schema table="units">
    <column name="met" kind="int"/>
    <column name="jit" kind="float"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="unit" table="units" script="mingle"/>
  <archetype name="chatty" table="units" script="chatty"/>
  <script name="mingle">
fn on_tick(self) {
  set(self, "jit", rand_float());
  let ns = nearby(self, 8.0);
  let n = len(ns);
  if n == 0 { return; }
  let cx = 0.0;
  let cy = 0.0;
  for id in ns {
    cx = cx + get(id, "x");
    cy = cy + get(id, "y");
  }
  move_toward(self, cx / n, cy / n, 0.5);
  add(self, "met", n);
}
  </script>
  <script name="chatty">
fn on_tick(self) {
  let seen = list();
  push(seen, self);
  add(self, "met", len(seen));
}
  </script>
</contentpack>`

// behaviorStats is a tick's accounting with wall times and the
// compiled-path counters — the only fields the executors may differ in —
// cleared.
func behaviorStats(st TickStats) TickStats {
	st = plainStats(st)
	st.CompiledCalls = 0
	return st
}

// runCrowd steps w for ticks and returns every tick's snapshot,
// accounting (wall times kept out), Step error text and LastScriptError
// text, plus the run's total of CompiledCalls.
func runCrowd(t *testing.T, w *World, ticks int) ([]mixTick, int) {
	t.Helper()
	var out []mixTick
	compiled := 0
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
		snap, serr := w.Snapshot()
		if serr != nil {
			t.Fatal(serr)
		}
		compiled += st.CompiledCalls
		out = append(out, mixTick{snap: snap, stats: behaviorStats(st),
			err: fmt.Sprint(err, " / ", w.LastScriptError)})
	}
	return out, compiled
}

// requireSameRun fails unless got repeats want tick by tick: snapshot,
// every TickStats counter but the compiled-path ones, and error text.
func requireSameRun(t *testing.T, label string, got, want []mixTick) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i].snap, want[i].snap) {
			t.Fatalf("%s tick %d: world state diverged from the interpreter", label, i+1)
		}
		if got[i].stats != want[i].stats {
			t.Fatalf("%s tick %d: accounting diverged:\ncompiled    %+v\ninterpreted %+v",
				label, i+1, got[i].stats, want[i].stats)
		}
		if got[i].err != want[i].err {
			t.Fatalf("%s tick %d: error text diverged:\ncompiled    %s\ninterpreted %s",
				label, i+1, got[i].err, want[i].err)
		}
	}
}

// compiledCrowd builds the 24-unit crowd, every sixth unit chatty, on
// plans or — interpret — with the pack's plans stripped.
func compiledCrowd(t *testing.T, cfg Config, interpret bool) *World {
	t.Helper()
	w := loadPackInterp(t, cfg, compiledCrowdPack, interpret)
	for i := 0; i < 24; i++ {
		arch := "unit"
		if i%6 == 0 {
			arch = "chatty"
		}
		if _, err := w.Spawn(arch, spatial.Vec2{X: float64(i % 5), Y: float64(i / 5)}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestCompiledMatchesInterpreted pins plan execution to the interpreter
// tick by tick on a compilable crowd — snapshot, every counter, fuel —
// across worker counts, and checks the coverage split: mingle runs on
// its plan, chatty (list/push are not compilable) on the interpreter.
func TestCompiledMatchesInterpreted(t *testing.T) {
	const ticks = 12
	want, wantCompiled := runCrowd(t, compiledCrowd(t, Config{Seed: 11, CellSize: 8, Workers: 1}, true), ticks)
	if wantCompiled != 0 {
		t.Fatalf("stripped pack counted %d compiled calls", wantCompiled)
	}
	effects, calls := 0, 0
	for _, tk := range want {
		effects += tk.stats.Effects
		calls += tk.stats.ScriptCalls
		if tk.stats.ScriptErrors > 0 {
			t.Fatalf("crowd errored: %s", tk.err)
		}
	}
	if effects == 0 {
		t.Fatal("crowd emitted no effects — workload inert")
	}
	for _, workers := range []int{1, 2, 4} {
		got, compiled := runCrowd(t, compiledCrowd(t, Config{Seed: 11, CellSize: 8, Workers: workers}, false), ticks)
		requireSameRun(t, fmt.Sprintf("workers=%d", workers), got, want)
		if compiled == 0 {
			t.Fatalf("workers=%d: no behavior call completed on a plan", workers)
		}
		if compiled >= calls {
			t.Fatalf("workers=%d: chatty fallback missing (compiled %d of %d calls)", workers, compiled, calls)
		}
	}
}

// TestCompiledFallbackKeepsChaosIdentical: the chaos pack's scripts all
// hit non-compilable constructs (spawn, despawn, break), so the pack
// carries no behavior plan and the world must be the stripped world.
func TestCompiledFallbackKeepsChaosIdentical(t *testing.T) {
	cfg := Config{Seed: 9, CellSize: 8, Workers: 4}
	want, _ := runCrowd(t, loadPackInterp(t, cfg, chaosPack, true), 20)
	got, compiled := runCrowd(t, loadPack(t, cfg, chaosPack), 20)
	if compiled != 0 {
		t.Fatalf("chaos scripts compiled %d calls, want pure fallback", compiled)
	}
	requireSameRun(t, "chaos", got, want)
}

// TestCompiledOCCEquivalence: under the OCC policy plans log the same
// read-sets, so invalidation picks the same losers, and the re-runs —
// plan-first like every invocation — converge to the same serializable
// state with identical retry/abort/fuel accounting.
func TestCompiledOCCEquivalence(t *testing.T) {
	run := func(interpret bool) ([]mixTick, int) {
		w := loadPackInterp(t, Config{Seed: 1, Workers: 2, ConflictPolicy: ConflictOCC}, twoWritersOneReaderPack, interpret)
		for _, arch := range []string{"store", "wa", "wb", "rd"} {
			if _, err := w.Spawn(arch, spatial.Vec2{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Set(1, "v", entity.Int(7)); err != nil {
			t.Fatal(err)
		}
		return runCrowd(t, w, 5)
	}
	want, _ := run(true)
	retries := 0
	for _, tk := range want {
		retries += tk.stats.EffectRetries
	}
	if retries == 0 {
		t.Fatal("quartet produced no retries — conflict machinery not exercised")
	}
	got, compiled := run(false)
	requireSameRun(t, "occ quartet", got, want)
	if compiled == 0 {
		t.Fatal("quartet ran zero compiled calls")
	}
}

// TestCompiledFuelSkipParity: a starved fuel budget must skip the same
// invocations on either executor — a plan overrun rolls back and the
// interpreter re-run owns the skip accounting.
func TestCompiledFuelSkipParity(t *testing.T) {
	run := func(interpret bool) []mixTick {
		w := loadPackInterp(t, Config{Seed: 11, CellSize: 8, Workers: 2, ScriptFuel: 18}, compiledCrowdPack, interpret)
		for i := 0; i < 16; i++ {
			if _, err := w.Spawn("unit", spatial.Vec2{X: float64(i % 4), Y: float64(i / 4)}); err != nil {
				t.Fatal(err)
			}
		}
		out, _ := runCrowd(t, w, 8)
		return out
	}
	want := run(true)
	skips := 0
	for _, tk := range want {
		skips += tk.stats.ScriptSkips
	}
	if skips == 0 {
		t.Fatal("fuel budget did not starve any invocation — parity untested")
	}
	requireSameRun(t, "starved", run(false), want)
}

// TestPlanForReportsCompileState checks the introspection hook gslrun's
// -plan flag rides on: explain text for compiled scripts, the first
// offending construct for fallbacks, not-found otherwise.
func TestPlanForReportsCompileState(t *testing.T) {
	w := loadPack(t, Config{Seed: 1}, compiledCrowdPack)
	explain, fallback, ok := w.PlanFor("mingle")
	if !ok || explain == "" || fallback != "" {
		t.Fatalf("mingle: explain=%q fallback=%q ok=%v", explain, fallback, ok)
	}
	_, fallback, ok = w.PlanFor("chatty")
	if !ok || fallback == "" {
		t.Fatalf("chatty: fallback=%q ok=%v, want non-compilable reason", fallback, ok)
	}
	if _, _, ok := w.PlanFor("nope"); ok {
		t.Fatal("unknown script reported a plan")
	}
}
