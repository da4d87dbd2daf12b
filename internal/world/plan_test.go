package world

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/spatial"
)

// compiledCrowdPack is a crowd whose scripts cover the language: mingle
// is flocking math over nearby/get/move_toward/add plus a per-entity
// rand jitter, so plans must reproduce the effect records and the
// deterministic rand stream bit-for-bit; chatty counts its neighbors
// through a user function with a while loop, break and continue.
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
fn bump(n) {
  let k = 0;
  while true {
    k = k + 1;
    if k >= n { break; }
    if k % 2 == 0 { continue; }
  }
  return k;
}
fn on_tick(self) {
  let ns = nearby(self, 3.0);
  add(self, "met", bump(len(ns) + 1));
}
  </script>
</contentpack>`

// goldenLines returns the lines testdata/interpreter_goldens.txt holds
// for run: what the interpreter did on the same pack, crowd and config.
func goldenLines(t *testing.T, run string) []string {
	t.Helper()
	f, err := os.Open("testdata/interpreter_goldens.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), run+" "); ok {
			out = append(out, rest)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no goldens recorded for %q", run)
	}
	return out
}

// snapHash is the FNV-1a of a snapshot, as the goldens record it.
func snapHash(snap []byte) uint64 {
	h := fnv.New64a()
	h.Write(snap)
	return h.Sum64()
}

// tickLine renders one tick the way the goldens record it: the
// snapshot's hash, every TickStats counter but the wall times and
// CompiledCalls, and the error text.
func tickLine(st TickStats, snap []byte, errText string) string {
	return fmt.Sprintf("tick=%d snap=%016x ent=%d calls=%d errs=%d skips=%d fuel=%d fired=%d rounds=%d teff=%d tconf=%d terr=%d tskip=%d eff=%d conf=%d retry=%d abort=%d fwd=%d merged=%d inval=%d err=%q",
		st.Tick, snapHash(snap), st.Entities, st.ScriptCalls, st.ScriptErrors, st.ScriptSkips, st.FuelUsed, st.TriggerFired, st.TriggerRounds,
		st.TriggerEffects, st.TriggerConflicts, st.TriggerErrors, st.TriggerSkips, st.Effects, st.EffectConflicts,
		st.EffectRetries, st.EffectAborts, st.EffectsForwarded, st.EffectsRemoteMerged, st.RemoteInvalidations, errText)
}

func profLine(r obs.ProfRow) string {
	return fmt.Sprintf("prof %s calls=%d errs=%d skips=%d fuel=%d eff=%d reads=%d retry=%d abort=%d conf=%d",
		r.Name, r.Calls, r.Errors, r.Skips, r.Fuel, r.Effects, r.Reads, r.Retries, r.Aborts, r.Conflicts)
}

// runTicks steps w and renders every tick; withLast appends the world's
// LastScriptError to the Step error.
func runTicks(t *testing.T, w *World, ticks int, withLast bool) []string {
	t.Helper()
	out, _ := runTicksCounting(t, w, ticks, withLast)
	return out
}

// runTicksCounting is runTicks that also returns, per tick, how many
// behavior invocations fell back to the scalar plan.
func runTicksCounting(t *testing.T, w *World, ticks int, withLast bool) ([]string, []int) {
	t.Helper()
	var out []string
	var fallbacks []int
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
		fallbacks = append(fallbacks, w.Fallbacks())
		snap, serr := w.Snapshot()
		if serr != nil {
			t.Fatal(serr)
		}
		errText := fmt.Sprint(err)
		if withLast {
			errText = fmt.Sprint(err, " / ", w.LastScriptError)
		}
		out = append(out, tickLine(st, snap, errText))
		if cerr := w.Check(); cerr != nil {
			t.Fatalf("tick %d: %v", st.Tick, cerr)
		}
	}
	return out, fallbacks
}

// requireGolden fails at the first line where got leaves the recorded
// interpreter run.
func requireGolden(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, the interpreter recorded %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: diverged from the interpreter at line %d:\nplan        %s\ninterpreter %s", label, i+1, got[i], want[i])
		}
	}
}

// compiledCrowd builds the 24-unit crowd, every sixth unit chatty.
func compiledCrowd(t *testing.T, cfg Config) *World {
	t.Helper()
	w := loadPack(t, cfg, compiledCrowdPack)
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
// tick by tick on the crowd — snapshot, every counter, fuel, error text
// — across worker counts. mingle runs batched; chatty's while loop and
// user function keep it per entity, so its four units run on the scalar
// plan every tick.
func TestCompiledMatchesInterpreted(t *testing.T) {
	want := goldenLines(t, "crowd")
	for _, workers := range []int{1, 2, 4} {
		got, fallbacks := runTicksCounting(t, compiledCrowd(t, Config{Seed: 11, CellSize: 8, Workers: workers}), len(want), true)
		requireGolden(t, fmt.Sprintf("workers=%d", workers), got, want)
		requireFallbacks(t, fmt.Sprintf("workers=%d", workers), fallbacks, 4)
	}
}

// requireFallbacks fails unless every tick ran exactly want invocations
// on the scalar plan.
func requireFallbacks(t *testing.T, label string, got []int, want int) {
	t.Helper()
	for i, n := range got {
		if n != want {
			t.Fatalf("%s: tick %d ran %d invocations on the scalar plan, want %d", label, i+1, n, want)
		}
	}
}

// TestCompiledFallbackKeepsChaosIdentical: the chaos pack's scripts use
// spawn, despawn and break, and their batched plans land on the
// interpreter's world with no lane falling back.
func TestCompiledFallbackKeepsChaosIdentical(t *testing.T) {
	want := goldenLines(t, "chaos")
	got, fallbacks := runTicksCounting(t, loadPack(t, Config{Seed: 9, CellSize: 8, Workers: 4}, chaosPack), len(want), true)
	requireGolden(t, "chaos", got, want)
	requireFallbacks(t, "chaos", fallbacks, 0)
}

// TestBatchFallsBackOnErrors: the chaos crowd, its walkers made to read
// the position of an entity that does not exist whenever they see more
// than two neighbors. Those lanes error inside the batch; they, and only
// they, re-run on the scalar plan, which reports the error, and the world
// stays the same for one worker and four.
func TestBatchFallsBackOnErrors(t *testing.T) {
	pack := strings.Replace(chaosPack, `move_toward(self, pos_x(first), pos_y(first), 0.5);`,
		`move_toward(self, pos_x(first), pos_y(first), 0.5);
    if len(ns) > 2 { let bad = pos_x(self + 1000000); }`, 1)
	if pack == chaosPack {
		t.Fatal("the chaos pack changed; the error hook did not apply")
	}
	run := func(workers int) []string {
		w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: workers}, pack)
		var lines []string
		errors := 0
		for i := 0; i < 10; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.ScriptErrors != w.Fallbacks() {
				t.Fatalf("workers=%d tick %d: %d errors but %d scalar re-runs", workers, st.Tick, st.ScriptErrors, w.Fallbacks())
			}
			errors += st.ScriptErrors
			snap, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, tickLine(st, snap, fmt.Sprint(w.LastScriptError)))
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
		}
		if errors == 0 {
			t.Fatal("no walker errored: the test crowd no longer reaches the error")
		}
		if !strings.Contains(lines[len(lines)-1], "has no position") {
			t.Fatalf("workers=%d: last tick %s, want the scalar run's error", workers, lines[len(lines)-1])
		}
		return lines
	}
	requireGolden(t, "workers=4", run(4), run(1))
}

// TestCompiledOCCEquivalence: under the OCC policy plans log the
// interpreter's read-sets, so invalidation picks the same losers, and
// the re-runs converge to the same serializable state with identical
// retry/abort/fuel accounting.
func TestCompiledOCCEquivalence(t *testing.T) {
	want := goldenLines(t, "quartet")
	w := loadPack(t, Config{Seed: 1, Workers: 2, ConflictPolicy: ConflictOCC}, twoWritersOneReaderPack)
	for _, arch := range []string{"store", "wa", "wb", "rd"} {
		if _, err := w.Spawn(arch, spatial.Vec2{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Set(1, "v", entity.Int(7)); err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "occ quartet", runTicks(t, w, len(want), true), want)
}

// TestCompiledFuelSkipParity: a starved fuel budget skips the invocations
// the interpreter skipped, with the fuel it reported (cap+1 each). Every
// batched lane crosses the cap, so every one re-runs on the scalar plan,
// which finds the node that crossed — and the profiler times each
// invocation at most once, on the scalar run that decided it.
func TestCompiledFuelSkipParity(t *testing.T) {
	want := goldenLines(t, "starved")
	prof := obs.NewProfiler()
	w := loadPack(t, Config{Seed: 11, CellSize: 8, Workers: 2, ScriptFuel: 18, Profile: prof}, compiledCrowdPack)
	for i := 0; i < 16; i++ {
		if _, err := w.Spawn("unit", spatial.Vec2{X: float64(i % 4), Y: float64(i / 4)}); err != nil {
			t.Fatal(err)
		}
	}
	got, fallbacks := runTicksCounting(t, w, len(want), true)
	requireGolden(t, "starved", got, want)
	requireFallbacks(t, "starved", fallbacks, 16)
	for _, r := range prof.Rows() {
		if r.Samples > r.Calls {
			t.Fatalf("%s: %d timed samples for %d calls", r.Name, r.Samples, r.Calls)
		}
	}
}

// TestPlanForReportsCompileState checks the introspection hook gslrun's
// -plan flag rides on: explain text for every script with an on_tick,
// not-found otherwise.
func TestPlanForReportsCompileState(t *testing.T) {
	w := loadPack(t, Config{Seed: 1}, compiledCrowdPack)
	if explain, ok := w.PlanFor("mingle"); !ok || !strings.Contains(explain, "spatial-index probe") || !strings.Contains(explain, "driver: set-at-a-time") {
		t.Fatalf("mingle: explain=%q ok=%v, want the batched plan", explain, ok)
	}
	if explain, ok := w.PlanFor("chatty"); !ok || !strings.Contains(explain, "fn bump(n)") || !strings.Contains(explain, "while true") ||
		!strings.Contains(explain, `driver: per-entity: call to user function "bump"`) {
		t.Fatalf("chatty: explain=%q ok=%v, want the plan with bump's loop, run per entity for the call to bump", explain, ok)
	}
	if _, ok := w.PlanFor("nope"); ok {
		t.Fatal("unknown script reported a plan")
	}
}

// minglePack is the mingle crowd of internal/shard's scenario registry:
// every unit scans its neighborhood, steps toward the local centroid and
// counts encounters, while velocity physics moves it.
const minglePack = `
<contentpack name="mingle-crowd">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="met" kind="int"/>
  </schema>
  <archetype name="unit" table="units" script="mingle"/>
  <script name="mingle">
fn on_tick(self) {
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
</contentpack>`

// TestQueryPhaseAllocFree pins the query phase's steady state to zero
// allocations at one worker and at four: the batched runs, the band
// join, the staged records and the commit all reuse their buffers.
func TestQueryPhaseAllocFree(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := loadPack(t, Config{Seed: 3, CellSize: 16, Workers: workers}, minglePack)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1500; i++ {
			id, err := w.Spawn("unit", spatial.Vec2{X: rng.Float64() * 400, Y: rng.Float64() * 400})
			if err != nil {
				t.Fatal(err)
			}
			w.Set(id, "vx", entity.Float(rng.Float64()*2-1))
			w.Set(id, "vy", entity.Float(rng.Float64()*2-1))
		}
		for i := 0; i < 5; i++ {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var st TickStats
		query := func() {
			st = TickStats{}
			w.queryPhase(&st, workers)
		}
		if allocs := testing.AllocsPerRun(20, query); allocs != 0 {
			t.Fatalf("workers=%d: the query phase allocates %.1f times a tick, want 0", workers, allocs)
		}
		if st.ScriptCalls != 1500 || w.Fallbacks() != 0 {
			t.Fatalf("workers=%d: %d calls, %d on the scalar plan", workers, st.ScriptCalls, w.Fallbacks())
		}
	}
}
