package world

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/obs"
	"gamedb/internal/spatial"
)

// triggerMixPack drives every way a trigger invocation can end, on both
// executors at once: rules whose two sides compile (reads, set / add /
// emit, rand draws, a for-in over a spatial probe), a rule whose action
// is not compilable (while), an action that fails at run time for some
// payloads, an action that exhausts ScriptFuel only where the crowd is
// dense, a Once rule, and two rules racing one cell (which the occ
// policy re-runs).
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

// plainStats is a tick's accounting with wall times and the
// compiled-path counter — the only fields the executors may differ in —
// cleared.
func plainStats(st TickStats) TickStats {
	st.QueryNS, st.ApplyNS, st.TriggerNS = 0, 0, 0
	st.TriggerCompiled = 0
	return st
}

type mixTick struct {
	snap  []byte
	stats TickStats
	err   string
}

// runTriggerMix runs the mix crowd for ticks, with the pack's trigger
// plans stripped or not, and returns every tick's snapshot, accounting
// and Step error text, the total of TriggerCompiled, and the profiler's
// trigger rows.
func runTriggerMix(t *testing.T, strip bool, workers int, policy string, ticks int) ([]mixTick, int, map[string]obs.ProfRow) {
	t.Helper()
	c, errs := content.LoadAndCompile(strings.NewReader(triggerMixPack))
	if len(errs) > 0 {
		t.Fatalf("pack: %v", errs)
	}
	if strip {
		StripTriggerPlans(c)
	}
	prof := obs.NewProfiler()
	// 450 fuel lets crowd's for-in finish for a handful of neighbors and
	// exhausts it in the dense middle of the spawn grid.
	w := New(Config{Seed: 9, CellSize: 8, Workers: workers, ConflictPolicy: policy, ScriptFuel: 450, Profile: prof})
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		// Dense in the middle, sparse at the rim.
		r := float64(i%10) * float64(i%10) / 4
		if _, err := w.Spawn("unit", spatial.Vec2{X: 40 + r, Y: 40 + float64(i/10)*r/3}); err != nil {
			t.Fatal(err)
		}
	}
	var out []mixTick
	compiled := 0
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
		snap, serr := w.Snapshot()
		if serr != nil {
			t.Fatal(serr)
		}
		compiled += st.TriggerCompiled
		out = append(out, mixTick{snap: snap, stats: plainStats(st), err: fmt.Sprint(err)})
	}
	rows := map[string]obs.ProfRow{}
	for _, r := range prof.Rows() {
		if strings.HasPrefix(r.Name, "trigger/") {
			r.Samples, r.AvgNS, r.EstTotalNS = 0, 0, 0
			rows[r.Name] = r
		}
	}
	return out, compiled, rows
}

// TestCompiledTriggersMatchInterpreted pins the compiled trigger path
// to the interpreter tick by tick — snapshot, every TickStats counter,
// the joined error text out of Step, and the exact per-rule profile
// counters — across worker counts and both conflict policies, on a
// crowd where plan invocations complete, error, exhaust fuel and re-run
// under occ.
func TestCompiledTriggersMatchInterpreted(t *testing.T) {
	const ticks = 6
	for _, policy := range []string{ConflictLastWrite, ConflictOCC} {
		for _, workers := range []int{1, 4} {
			want, wantCompiled, wantRows := runTriggerMix(t, true, workers, policy, ticks)
			got, gotCompiled, gotRows := runTriggerMix(t, false, workers, policy, ticks)
			if wantCompiled != 0 {
				t.Fatalf("stripped pack still ran %d plan invocations", wantCompiled)
			}
			if gotCompiled == 0 {
				t.Fatal("compiled pack ran no plan invocations")
			}
			var sum TickStats
			for i := range want {
				if !bytes.Equal(got[i].snap, want[i].snap) {
					t.Fatalf("%s workers=%d tick %d: world state diverged from the interpreter", policy, workers, i+1)
				}
				if got[i].stats != want[i].stats {
					t.Fatalf("%s workers=%d tick %d: accounting diverged:\ncompiled    %+v\ninterpreted %+v",
						policy, workers, i+1, got[i].stats, want[i].stats)
				}
				if got[i].err != want[i].err {
					t.Fatalf("%s workers=%d tick %d: Step error diverged:\ncompiled    %s\ninterpreted %s",
						policy, workers, i+1, got[i].err, want[i].err)
				}
				sum.TriggerErrors += want[i].stats.TriggerErrors
				sum.TriggerSkips += want[i].stats.TriggerSkips
				sum.EffectRetries += want[i].stats.EffectRetries
			}
			// The crowd must actually reach the fallback corners.
			if sum.TriggerErrors == 0 || sum.TriggerSkips == 0 {
				t.Fatalf("%s workers=%d: errors=%d skips=%d — mix not exercising fallback",
					policy, workers, sum.TriggerErrors, sum.TriggerSkips)
			}
			if policy == ConflictOCC && sum.EffectRetries == 0 {
				t.Fatalf("workers=%d: occ run re-ran nothing", workers)
			}
			if len(gotRows) == 0 {
				t.Fatal("profiler attributed no trigger rules")
			}
			for name, wr := range wantRows {
				if gr := gotRows[name]; gr != wr {
					t.Fatalf("%s workers=%d: profile row %s diverged:\ncompiled    %+v\ninterpreted %+v",
						policy, workers, name, gr, wr)
				}
			}
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
	run := func(strip bool) (TickStats, string) {
		c, errs := content.LoadAndCompile(strings.NewReader(src))
		if len(errs) > 0 {
			t.Fatalf("pack: %v", errs)
		}
		if strip {
			StripTriggerPlans(c)
		}
		w := New(Config{Seed: 1})
		if err := w.LoadPack(c); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Spawn("p", spatial.Vec2{}); err != nil {
			t.Fatal(err)
		}
		st, err := w.Step()
		if err == nil {
			t.Fatal("non-bool condition must surface from Step")
		}
		return st, err.Error()
	}
	st, msg := run(false)
	if want := `trigger "sloppy" condition returned int`; msg != want {
		t.Fatalf("error = %q, want %q", msg, want)
	}
	if st.TriggerErrors != 1 || st.TriggerFired != 0 {
		t.Fatalf("TriggerErrors=%d TriggerFired=%d, want 1 and 0", st.TriggerErrors, st.TriggerFired)
	}
	if st.TriggerCompiled != 1 {
		t.Fatalf("TriggerCompiled = %d, want 1 (the condition completed on its plan)", st.TriggerCompiled)
	}
	if ist, imsg := run(true); imsg != msg || ist.TriggerErrors != 1 {
		t.Fatalf("interpreter path: error %q TriggerErrors %d", imsg, ist.TriggerErrors)
	}
}

// TestTriggerInterpreterClonesAreLazy: a rule that stays on its plans
// never builds an interpreter clone; a rule without a plan, or one
// whose plan invocation fell back, builds one on the slot that needed
// it.
func TestTriggerInterpreterClonesAreLazy(t *testing.T) {
	w := loadPack(t, Config{Seed: 9, CellSize: 8, ScriptFuel: 450}, triggerMixPack)
	for i := 0; i < 3; i++ {
		if _, err := w.Spawn("unit", spatial.Vec2{X: float64(40 * i), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	w.Step() // bad-payload errors for one of the three; that is the point
	clones := func(f *boundFn) int {
		n := 0
		for _, in := range f.ins {
			if in != nil {
				n++
			}
		}
		return n
	}
	for _, bt := range w.trigList {
		switch bt.name {
		case "chain", "race-a", "crowd":
			if clones(bt.cond)+clones(bt.act) != 0 {
				t.Errorf("%s: built %d+%d interpreter clones though every invocation completed on a plan",
					bt.name, clones(bt.cond), clones(bt.act))
			}
		case "looper":
			if bt.act.plan != nil || clones(bt.act) != 1 || clones(bt.cond) != 0 {
				t.Errorf("looper: act plan=%v clones=%d, cond clones=%d; want no plan, 1, 0",
					bt.act.plan != nil, clones(bt.act), clones(bt.cond))
			}
		case "bad-payload":
			if bt.act.plan == nil || clones(bt.act) != 1 {
				t.Errorf("bad-payload: plan=%v clones=%d; want a plan and the one fallback clone",
					bt.act.plan != nil, clones(bt.act))
			}
		}
	}
}

func TestPlanForReportsTriggerRules(t *testing.T) {
	w := loadPack(t, Config{Seed: 1}, triggerMixPack)
	explain, fallback, ok := w.PlanFor("trigger/chain")
	if !ok || fallback != "" {
		t.Fatalf("chain: fallback=%q ok=%v", fallback, ok)
	}
	for _, want := range []string{"cond(self, amount)", "act(self, amount)", "emit("} {
		if !strings.Contains(explain, want) {
			t.Errorf("chain explain missing %q:\n%s", want, explain)
		}
	}
	explain, fallback, ok = w.PlanFor("trigger/looper")
	if !ok || !strings.Contains(explain, "cond(self, amount)") || !strings.Contains(fallback, "<do>: while") {
		t.Fatalf("looper: explain=%q fallback=%q ok=%v; want the <when> plan and a <do> fallback", explain, fallback, ok)
	}
	if explain, _, ok = w.PlanFor("trigger/first-scan"); !ok || strings.Contains(explain, "cond(") {
		t.Fatalf("first-scan (no <when>): explain=%q ok=%v", explain, ok)
	}
	if _, _, ok := w.PlanFor("trigger/nope"); ok {
		t.Fatal("unknown rule reported a plan")
	}
}
