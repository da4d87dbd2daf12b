package world

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gamedb/internal/obs"
	"gamedb/internal/spatial"
)

// triggerMixPack drives every way a trigger invocation can end: rules
// over reads, set / add / emit, rand draws and a for-in over a spatial
// probe, an action with a while loop, an action that fails at run time
// for some payloads, an action that exhausts ScriptFuel only where the
// crowd is dense, a Once rule, and two rules racing one cell (which the
// occ policy re-runs).
const triggerMixPack = `
<contentpack name="trigmix">
  <schema table="units">
    <column name="hp" kind="float" default="50"/>
    <column name="boom" kind="int"/>
    <column name="score" kind="int"/>
    <column name="seen" kind="int"/>
    <column name="laps" kind="int"/>
    <column name="first" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="unit" table="units" script="pulse"/>
  <script name="pulse">
fn on_tick(self) { emit("pulse", self, 2); emit("scan", self, self % 3); }
  </script>
  <trigger name="chain" event="pulse" priority="5">
    <when>amount &gt; 0 &amp;&amp; get(self, "hp") &gt; 1.0</when>
    <do>
      add(self, "boom", 1);
      set(self, "hp", get(self, "hp") - rand_float());
      emit("pulse", self, amount - 1);
    </do>
  </trigger>
  <trigger name="race-a" event="pulse">
    <when>amount == 0</when>
    <do>set(self, "score", get(self, "score") + 5);</do>
  </trigger>
  <trigger name="race-b" event="pulse">
    <when>amount == 0</when>
    <do>set(self, "score", get(self, "score") + 7);</do>
  </trigger>
  <trigger name="crowd" event="scan">
    <when>amount &lt; 2</when>
    <do>
      for id in nearby(self, 6.0) {
        if get(id, "boom") &gt;= 0 || rand_float() &lt; 0.5 { add(self, "seen", 1); }
      }
    </do>
  </trigger>
  <trigger name="bad-payload" event="scan">
    <do>if amount == 2 { get(self, "no_such_column"); } add(self, "seen", 0);</do>
  </trigger>
  <trigger name="looper" event="scan">
    <when>amount == 1</when>
    <do>let i = 0; while i &lt; 3 { i = i + 1; } add(self, "laps", i);</do>
  </trigger>
  <trigger name="first-scan" event="scan" once="true">
    <do>set(self, "first", 1);</do>
  </trigger>
</contentpack>`

// runTriggerMix runs the mix crowd for ticks and returns every tick's
// golden line (snapshot, accounting and Step error text) followed by the
// profiler's trigger rows, sorted by rule.
func runTriggerMix(t *testing.T, workers int, policy string, ticks int) []string {
	t.Helper()
	prof := obs.NewProfiler()
	out := runTicks(t, triggerMixWorld(t, workers, policy, prof), ticks, false)
	var rows []string
	for _, r := range prof.Rows() {
		if strings.HasPrefix(r.Name, "trigger/") {
			rows = append(rows, profLine(r))
		}
	}
	slices.Sort(rows)
	return append(out, rows...)
}

// triggerMixWorld is the mix crowd: 60 units, profiled by prof.
func triggerMixWorld(t *testing.T, workers int, policy string, prof *obs.Profiler) *World {
	t.Helper()
	// 450 fuel lets crowd's for-in finish for a handful of neighbors and
	// exhausts it in the dense middle of the spawn grid.
	w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: workers, ConflictPolicy: policy, ScriptFuel: 450, Profile: prof}, triggerMixPack)
	for i := 0; i < 60; i++ {
		// Dense in the middle, sparse at the rim.
		r := float64(i%10) * float64(i%10) / 4
		if _, err := w.Spawn("unit", spatial.Vec2{X: 40 + r, Y: 40 + float64(i/10)*r/3}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestTriggerLanesFallBack: on the trigger mix every rule side runs
// set-at-a-time but looper's <do>, whose while loop keeps it per match,
// and each tick exactly these invocations re-run on the scalar plan:
// every looper action, every bad-payload action that errors, and every
// invocation a fuel skip ends. The pulse behavior never falls back.
func TestTriggerLanesFallBack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prof := obs.NewProfiler()
		w := triggerMixWorld(t, workers, ConflictLastWrite, prof)
		var prev map[string]obs.ProfRow
		var loops, errs, skips int
		for tick := 1; tick <= 10; tick++ {
			st, _ := w.Step() // bad-payload's errors come out of Step
			rows := map[string]obs.ProfRow{}
			for _, r := range prof.Rows() {
				rows[r.Name] = r
			}
			looper := int(rows["trigger/looper"].Calls - prev["trigger/looper"].Calls)
			bad := int(rows["trigger/bad-payload"].Errors - prev["trigger/bad-payload"].Errors)
			if want := looper + bad + st.TriggerSkips; w.Fallbacks() != want {
				t.Fatalf("workers=%d tick %d: %d invocations on the scalar plan, want %d looper actions + %d bad-payload errors + %d fuel skips",
					workers, tick, w.Fallbacks(), looper, bad, st.TriggerSkips)
			}
			loops, errs, skips = loops+looper, errs+bad, skips+st.TriggerSkips
			prev = rows
		}
		if loops == 0 || errs == 0 || skips == 0 {
			t.Fatalf("workers=%d: %d looper actions, %d bad-payload errors, %d fuel skips; the mix no longer reaches every fallback", workers, loops, errs, skips)
		}
	}
}

// TestCompiledTriggersMatchInterpreted pins trigger plans to the
// interpreter tick by tick — snapshot, every TickStats counter, the
// joined error text out of Step, and the exact per-rule profile counters
// — across worker counts and both conflict policies, on a crowd where
// invocations complete, error, exhaust fuel, loop and re-run under occ.
func TestCompiledTriggersMatchInterpreted(t *testing.T) {
	for _, policy := range []string{ConflictLastWrite, ConflictOCC} {
		want := goldenLines(t, "trigmix/"+policy)
		ticks := 0
		for _, l := range want {
			if strings.HasPrefix(l, "tick=") {
				ticks++
			}
		}
		for _, workers := range []int{1, 4} {
			got := runTriggerMix(t, workers, policy, ticks)
			requireGolden(t, fmt.Sprintf("%s workers=%d", policy, workers), got, want)
		}
	}
}

// TestNonBoolConditionErrorText: a <when> that yields a non-bool runs
// fine on its plan, and the drain must then report it in the
// interpreter path's exact words, once.
func TestNonBoolConditionErrorText(t *testing.T) {
	src := `
<contentpack name="nb">
  <schema table="u">
    <column name="n" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="p" table="u" script="poke"/>
  <script name="poke">
fn on_tick(self) { emit("poke", self, 4); }
  </script>
  <trigger name="sloppy" event="poke">
    <when>amount + 1</when>
    <do>add(self, "n", 1);</do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, src)
	if _, err := w.Spawn("p", spatial.Vec2{}); err != nil {
		t.Fatal(err)
	}
	st, err := w.Step()
	if err == nil {
		t.Fatal("non-bool condition must surface from Step")
	}
	if want := `trigger "sloppy" condition returned int`; err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	if st.TriggerErrors != 1 || st.TriggerFired != 0 {
		t.Fatalf("TriggerErrors=%d TriggerFired=%d, want 1 and 0", st.TriggerErrors, st.TriggerFired)
	}
}

func TestPlanForReportsTriggerRules(t *testing.T) {
	w := loadPack(t, Config{Seed: 1}, triggerMixPack)
	explain, ok := w.PlanFor("trigger/chain")
	if !ok {
		t.Fatal("chain: no plan")
	}
	for _, want := range []string{"cond(self, amount)", "act(self, amount)", "emit("} {
		if !strings.Contains(explain, want) {
			t.Errorf("chain explain missing %q:\n%s", want, explain)
		}
	}
	explain, ok = w.PlanFor("trigger/looper")
	if !ok || !strings.Contains(explain, "cond(self, amount)") || !strings.Contains(explain, "while (i < 3)") {
		t.Fatalf("looper: explain=%q ok=%v; want the <when> plan and the <do> loop", explain, ok)
	}
	if explain, ok = w.PlanFor("trigger/first-scan"); !ok || strings.Contains(explain, "cond(") {
		t.Fatalf("first-scan (no <when>): explain=%q ok=%v", explain, ok)
	}
	if _, ok := w.PlanFor("trigger/nope"); ok {
		t.Fatal("unknown rule reported a plan")
	}
}
