package world

import (
	"bufio"
	"fmt"
	"hash/fnv"
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
	var out []string
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
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
	return out
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
// — across worker counts.
func TestCompiledMatchesInterpreted(t *testing.T) {
	want := goldenLines(t, "crowd")
	for _, workers := range []int{1, 2, 4} {
		got := runTicks(t, compiledCrowd(t, Config{Seed: 11, CellSize: 8, Workers: workers}), len(want), true)
		requireGolden(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestCompiledFallbackKeepsChaosIdentical: the chaos pack's scripts use
// spawn, despawn and break, and their plans land on the interpreter's
// world.
func TestCompiledFallbackKeepsChaosIdentical(t *testing.T) {
	want := goldenLines(t, "chaos")
	got := runTicks(t, loadPack(t, Config{Seed: 9, CellSize: 8, Workers: 4}, chaosPack), len(want), true)
	requireGolden(t, "chaos", got, want)
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
// the interpreter skipped, with the fuel it reported (cap+1 each).
func TestCompiledFuelSkipParity(t *testing.T) {
	want := goldenLines(t, "starved")
	w := loadPack(t, Config{Seed: 11, CellSize: 8, Workers: 2, ScriptFuel: 18}, compiledCrowdPack)
	for i := 0; i < 16; i++ {
		if _, err := w.Spawn("unit", spatial.Vec2{X: float64(i % 4), Y: float64(i / 4)}); err != nil {
			t.Fatal(err)
		}
	}
	requireGolden(t, "starved", runTicks(t, w, len(want), true), want)
}

// TestPlanForReportsCompileState checks the introspection hook gslrun's
// -plan flag rides on: explain text for every script with an on_tick,
// not-found otherwise.
func TestPlanForReportsCompileState(t *testing.T) {
	w := loadPack(t, Config{Seed: 1}, compiledCrowdPack)
	if explain, ok := w.PlanFor("mingle"); !ok || !strings.Contains(explain, "spatial-index probe") {
		t.Fatalf("mingle: explain=%q ok=%v", explain, ok)
	}
	if explain, ok := w.PlanFor("chatty"); !ok || !strings.Contains(explain, "fn bump(n)") || !strings.Contains(explain, "while true") {
		t.Fatalf("chatty: explain=%q ok=%v, want the plan with bump's loop", explain, ok)
	}
	if _, ok := w.PlanFor("nope"); ok {
		t.Fatal("unknown script reported a plan")
	}
}
