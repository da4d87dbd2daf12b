package world

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/script"
	"gamedb/internal/spatial"
	"gamedb/internal/trigger"
)

func loadPack(t *testing.T, cfg Config, src string) *World {
	t.Helper()
	c, errs := content.LoadAndCompile(strings.NewReader(src))
	if len(errs) > 0 {
		t.Fatalf("pack: %v", errs)
	}
	w := New(cfg)
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	return w
}

// chaosPack exercises every effect kind — assignments, additive deltas,
// spawns, despawns, event posts, per-entity deterministic randomness,
// trigger writes, and velocity physics — as the worker-count
// determinism workload.
const chaosPack = `
<contentpack name="chaos">
  <schema table="units">
    <column name="hp" kind="int" default="60"/>
    <column name="hits" kind="int"/>
    <column name="pings" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
  </schema>
  <archetype name="walker" table="units" script="walk">
    <set column="hp" value="60"/>
  </archetype>
  <archetype name="drone" table="units" script="drift">
    <set column="hp" value="9"/>
  </archetype>
  <script name="walk">
fn on_tick(self) {
  let h = get(self, "hp");
  add(self, "hits", 1);
  if h &lt; 40 {
    set(self, "hp", 60);
    return;
  }
  set(self, "hp", h - 1);
  if h % 13 == 0 {
    let kid = spawn("drone", pos_x(self) + rand_float() * 4.0, pos_y(self) + rand_float() * 4.0);
    set(kid, "vx", rand_float() * 6.0 - 3.0);
    set(kid, "vy", rand_float() * 6.0 - 3.0);
  }
  let ns = nearby(self, 12.0);
  if len(ns) > 0 {
    emit("ping", self, len(ns));
    let first = 0;
    for id in ns { first = id; break; }
    move_toward(self, pos_x(first), pos_y(first), 0.5);
  }
}
  </script>
  <script name="drift">
fn on_tick(self) {
  let h = get(self, "hp");
  if h &lt; 1 {
    despawn(self);
    return;
  }
  set(self, "hp", h - 1);
}
  </script>
  <trigger name="count-pings" event="ping">
    <do>add(self, "pings", 1);</do>
  </trigger>
  <spawn archetype="walker" count="60" x="50" y="50" spread="40"/>
</contentpack>`

// runChaos builds the chaos world with the given worker count, runs it,
// and returns the snapshot (deterministic bytes: JSON with sorted keys).
func runChaos(t *testing.T, workers, ticks int) ([]byte, TickStats) {
	t.Helper()
	w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: workers}, chaosPack)
	var last TickStats
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ScriptErrors > 0 {
			t.Fatalf("workers=%d tick %d: script error %v", workers, st.Tick, w.LastScriptError)
		}
		last = st
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, last
}

func TestStepDeterministicAcrossWorkers(t *testing.T) {
	const ticks = 30
	base, baseStats := runChaos(t, 1, ticks)
	if baseStats.Effects == 0 {
		t.Fatal("chaos scenario emitted no effects — workload not exercising the pipeline")
	}
	for _, workers := range []int{2, 4, 8} {
		snap, _ := runChaos(t, workers, ticks)
		if !bytes.Equal(base, snap) {
			t.Fatalf("world state diverged between 1 and %d workers", workers)
		}
	}
}

func TestBehaviorsReadFrozenTickStartState(t *testing.T) {
	// Both entities copy their neighbor's v plus one. Under the
	// state-effect pipeline each reads the frozen tick-start value, so
	// the outcome is order-free: a=21, b=11 — not the sequential
	// cascade a=21, b=22.
	src := `
<contentpack name="frozen">
  <schema table="u">
    <column name="v" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="copier" table="u" script="copy"/>
  <script name="copy">
fn on_tick(self) {
  let ns = nearby(self, 50.0);
  for id in ns { set(self, "v", get(id, "v") + 1); }
}
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, src)
	a, _ := w.Spawn("copier", spatial.Vec2{X: 0, Y: 0})
	b, _ := w.Spawn("copier", spatial.Vec2{X: 1, Y: 0})
	w.Set(a, "v", entity.Int(10))
	w.Set(b, "v", entity.Int(20))
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.Get(a, "v"); got != entity.Int(21) {
		t.Fatalf("a.v = %v, want 21", got)
	}
	if got, _ := w.Get(b, "v"); got != entity.Int(11) {
		t.Fatalf("b.v = %v, want 11 (frozen read), not the sequential 22", got)
	}
}

func TestAdditiveDeltasCombineAcrossSources(t *testing.T) {
	// Every entity adds 1 to its neighbor's counter: deltas from
	// different sources combine, not overwrite.
	src := `
<contentpack name="adders">
  <schema table="u">
    <column name="n" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="adder" table="u" script="bump"/>
  <script name="bump">
fn on_tick(self) {
  for id in nearby(self, 50.0) { add(id, "n", 1); }
}
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, Workers: 4}, src)
	ids := make([]entity.ID, 3)
	for i := range ids {
		ids[i], _ = w.Spawn("adder", spatial.Vec2{X: float64(i), Y: 0})
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Effects != 6 {
		t.Fatalf("effects = %d, want 6 (3 entities × 2 neighbors)", st.Effects)
	}
	for _, id := range ids {
		if got, _ := w.Get(id, "n"); got != entity.Int(2) {
			t.Fatalf("entity %d n = %v, want 2", id, got)
		}
	}
}

func TestGhostsSkippedByBehaviorsAndPhysics(t *testing.T) {
	src := `
<contentpack name="g">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="n" kind="int"/>
  </schema>
  <archetype name="mover" table="u" script="count"/>
  <script name="count">
fn on_tick(self) { add(self, "n", 1); }
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, TickDT: 1}, src)
	id, _ := w.Spawn("mover", spatial.Vec2{X: 10, Y: 10})
	w.Set(id, "vx", entity.Float(5))
	w.SetGhost(id, true)
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptCalls != 0 {
		t.Fatalf("ghost ran a behavior: calls = %d", st.ScriptCalls)
	}
	if p, _ := w.Pos(id); p.X != 10 {
		t.Fatalf("ghost integrated by physics: x = %v", p.X)
	}
	// Unmarking restores both phases.
	w.SetGhost(id, false)
	st, err = w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptCalls != 1 {
		t.Fatalf("script calls = %d", st.ScriptCalls)
	}
	if p, _ := w.Pos(id); p.X != 15 {
		t.Fatalf("x = %v, want 15", p.X)
	}
}

func TestDespawnMidTickRosterSnapshot(t *testing.T) {
	// The killer despawns everyone nearby; the toucher marks everyone
	// nearby. The roster snapshot guarantees the toucher still runs this
	// tick even though the killer's effect removes it, and its own
	// effects still land (assignments apply before despawns).
	src := `
<contentpack name="roster">
  <schema table="u">
    <column name="mark" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="killer" table="u" script="kill"/>
  <archetype name="toucher" table="u" script="touch"/>
  <script name="kill">
fn on_tick(self) {
  for id in nearby(self, 50.0) { despawn(id); }
}
  </script>
  <script name="touch">
fn on_tick(self) {
  for id in nearby(self, 50.0) { set(id, "mark", 1) ; }
}
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, src)
	killer, _ := w.Spawn("killer", spatial.Vec2{X: 0, Y: 0})
	if _, err := w.Spawn("toucher", spatial.Vec2{X: 1, Y: 0}); err != nil {
		t.Fatal(err)
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptCalls != 2 {
		t.Fatalf("script calls = %d, want 2 (roster frozen at tick start)", st.ScriptCalls)
	}
	if w.Entities() != 1 {
		t.Fatalf("entities = %d, want 1 (toucher despawned)", w.Entities())
	}
	if got, _ := w.Get(killer, "mark"); got != entity.Int(1) {
		t.Fatalf("killer mark = %v — despawned toucher's effects were lost", got)
	}
}

func TestDoubleDespawnCountsConflict(t *testing.T) {
	src := `
<contentpack name="dd">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="killer" table="u" script="kill"/>
  <archetype name="victim" table="u"/>
  <script name="kill">
fn on_tick(self) {
  for id in nearby(self, 50.0) { despawn(id); }
}
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, Workers: 2}, src)
	w.Spawn("killer", spatial.Vec2{X: 0, Y: 0})
	w.Spawn("killer", spatial.Vec2{X: 2, Y: 0})
	w.Spawn("victim", spatial.Vec2{X: 1, Y: 0})
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Each killer despawns the other killer and the victim: 4 despawn
	// effects, of which the duplicate victim despawn resolves as the
	// one conflict.
	if w.Entities() != 0 {
		t.Fatalf("entities = %d, want 0", w.Entities())
	}
	if st.Effects != 4 {
		t.Fatalf("effects = %d, want 4", st.Effects)
	}
	if st.EffectConflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", st.EffectConflicts)
	}
}

func TestFuelExhaustionDiscardsInvocationEffects(t *testing.T) {
	// The runaway script writes a marker before spinning forever. The
	// invocation is atomic, so the marker must not survive, and the
	// exhaustion counts as a skip, never an error.
	src := `
<contentpack name="f">
  <schema table="u">
    <column name="mark" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="spinner" table="u" script="spin"/>
  <script name="spin">
fn on_tick(self) {
  set(self, "mark", 1);
  let i = 0;
  while i &lt; 1000000 { i = i + 1; }
}
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, ScriptFuel: 5000, Workers: 2}, src)
	ids := make([]entity.ID, 4)
	for i := range ids {
		ids[i], _ = w.Spawn("spinner", spatial.Vec2{X: float64(10 * i), Y: 0})
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptSkips != 4 {
		t.Fatalf("skips = %d, want 4 (every invocation exhausted)", st.ScriptSkips)
	}
	if st.ScriptErrors != 0 {
		t.Fatalf("fuel exhaustion counted as error: %d", st.ScriptErrors)
	}
	if st.Effects != 0 {
		t.Fatalf("effects = %d, want 0 (atomic discard)", st.Effects)
	}
	for _, id := range ids {
		if got, _ := w.Get(id, "mark"); got != entity.Int(0) {
			t.Fatalf("entity %d mark = %v — exhausted invocation leaked a write", id, got)
		}
	}
}

func TestTriggerDrainErrorPropagates(t *testing.T) {
	src := `
<contentpack name="t">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="poker" table="u" script="poke"/>
  <script name="poke">
fn on_tick(self) { emit("boom", self, 1); }
  </script>
  <trigger name="bad" event="boom">
    <do>get(self, "no_such_column");</do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, src)
	w.Spawn("poker", spatial.Vec2{})
	st, err := w.Step()
	if err == nil {
		t.Fatal("trigger drain error must propagate out of Step")
	}
	if st.Tick != 1 || st.ScriptCalls != 1 {
		t.Fatalf("stats lost on trigger error: %+v", st)
	}
}

func TestSpawnedEntitiesMaterializeAtApply(t *testing.T) {
	src := `
<contentpack name="s">
  <schema table="u">
    <column name="hp" kind="int" default="5"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="mother" table="u" script="bud"/>
  <archetype name="child" table="u"/>
  <script name="bud">
fn on_tick(self) {
  let kid = spawn("child", pos_x(self) + 1.0, pos_y(self));
  set(kid, "hp", 77);
}
  </script>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, Workers: 2}, src)
	w.Spawn("mother", spatial.Vec2{X: 10, Y: 10})
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptErrors > 0 {
		t.Fatal(w.LastScriptError)
	}
	if w.Entities() != 2 {
		t.Fatalf("entities = %d, want 2", w.Entities())
	}
	// The set against the provisional id remapped onto the real row.
	tab, _ := w.Table("u")
	found := false
	tab.Scan(func(id entity.ID, row []entity.Value) bool {
		if row[tab.Schema().MustCol("hp")] == entity.Int(77) {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("set on provisional spawn id did not reach the materialized row")
	}
	// Only the mother ran a behavior this tick (roster snapshot).
	if st.ScriptCalls != 1 {
		t.Fatalf("script calls = %d, want 1", st.ScriptCalls)
	}
}

// triggerChaosPack is the trigger-cascade determinism workload: every
// caster's behavior emits a self-targeted surge that a chained trigger
// re-emits across rounds while adding, conditionally spawning sparks
// (with per-match deterministic rand), and a final-round trigger burns
// hp and eventually despawns the caster — so the trigger phase itself
// exercises set, add, spawn, despawn, emit and rand_float.
const triggerChaosPack = `
<contentpack name="trigchaos">
  <schema table="units">
    <column name="hp" kind="int" default="40"/>
    <column name="boom" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="caster" table="units" script="cast"/>
  <archetype name="spark" table="units">
    <set column="hp" value="1"/>
  </archetype>
  <script name="cast">
fn on_tick(self) { emit("surge", self, 2); }
  </script>
  <trigger name="surge-chain" event="surge" priority="5">
    <when>amount &gt; 0</when>
    <do>
      add(self, "boom", 1);
      if get(self, "hp") % 2 == 0 {
        spawn("spark", pos_x(self) + rand_float() * 3.0, pos_y(self) + rand_float() * 3.0);
      }
      emit("surge", self, amount - 1);
    </do>
  </trigger>
  <trigger name="surge-burn" event="surge">
    <when>amount == 0</when>
    <do>
      add(self, "hp", 0 - 1);
      if get(self, "hp") &lt;= 36 { despawn(self); }
    </do>
  </trigger>
  <spawn archetype="caster" count="40" x="50" y="50" spread="35"/>
</contentpack>`

// runTriggerChaos runs the trigger-chaos world and returns its snapshot
// plus the run's aggregated trigger accounting (summed across ticks —
// the casters die partway through, so any single tick is unreliable).
func runTriggerChaos(t *testing.T, workers, ticks int) ([]byte, TickStats) {
	t.Helper()
	w := loadPack(t, Config{Seed: 5, CellSize: 8, Workers: workers}, triggerChaosPack)
	var agg TickStats
	for i := 0; i < ticks; i++ {
		st, err := w.Step()
		if err != nil {
			t.Fatalf("workers=%d tick %d: %v", workers, st.Tick, err)
		}
		agg.TriggerFired += st.TriggerFired
		agg.TriggerRounds += st.TriggerRounds
		agg.TriggerEffects += st.TriggerEffects
		agg.TriggerConflicts += st.TriggerConflicts
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, agg
}

func TestTriggerCascadeDeterministicAcrossWorkers(t *testing.T) {
	const ticks = 8
	base, baseStats := runTriggerChaos(t, 1, ticks)
	if baseStats.TriggerRounds < 3 {
		t.Fatalf("rounds = %d — scenario not cascading", baseStats.TriggerRounds)
	}
	if baseStats.TriggerEffects == 0 {
		t.Fatal("trigger rounds emitted no effects — workload not exercising the effect drain")
	}
	for _, workers := range []int{2, 4, 8} {
		snap, st := runTriggerChaos(t, workers, ticks)
		if !bytes.Equal(base, snap) {
			t.Fatalf("world state diverged between 1 and %d workers under trigger cascades", workers)
		}
		if st.TriggerFired != baseStats.TriggerFired || st.TriggerRounds != baseStats.TriggerRounds {
			t.Fatalf("trigger accounting diverged: w%d fired=%d rounds=%d, base fired=%d rounds=%d",
				workers, st.TriggerFired, st.TriggerRounds, baseStats.TriggerFired, baseStats.TriggerRounds)
		}
	}
}

func TestOnceTriggerFiresOnceAcrossWorkers(t *testing.T) {
	// Many entities emit the once rule's event in the same tick: the
	// effect drain matches it against every event, but it must fire for
	// exactly the first match in source order, at every worker count.
	src := `
<contentpack name="once">
  <schema table="u">
    <column name="marks" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="hitter" table="u" script="hit"/>
  <script name="hit">
fn on_tick(self) { emit("hit", self, 1); }
  </script>
  <trigger name="first-blood" event="hit" once="true">
    <do>add(self, "marks", 1);</do>
  </trigger>
</contentpack>`
	// run steps three ticks and returns the snapshot, the world and the
	// activations summed over every tick.
	run := func(workers int) ([]byte, *World, int) {
		w := loadPack(t, Config{Seed: 3, Workers: workers}, src)
		for i := 0; i < 6; i++ {
			if _, err := w.Spawn("hitter", spatial.Vec2{X: float64(i), Y: 0}); err != nil {
				t.Fatal(err)
			}
		}
		fired := 0
		for i := 0; i < 3; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			fired += st.TriggerFired
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, w, fired
	}
	base, bw, fired := run(1)
	if fired != 1 {
		t.Fatalf("once trigger fired %d times", fired)
	}
	if bw.Triggers().Rules() != 0 {
		t.Fatalf("once trigger should be consumed; Rules = %d", bw.Triggers().Rules())
	}
	for _, workers := range []int{2, 4, 8} {
		snap, _, fired := run(workers)
		if fired != 1 {
			t.Fatalf("workers=%d: once trigger fired %d times", workers, fired)
		}
		if !bytes.Equal(base, snap) {
			t.Fatalf("workers=%d: once rule marked a different entity", workers)
		}
	}
}

func TestTriggerCascadeDepthRecovers(t *testing.T) {
	src := `
<contentpack name="loop">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="p" table="u" script="poke"/>
  <script name="poke">
fn on_tick(self) { emit("ping", self, 1); }
  </script>
  <trigger name="loop" event="ping">
    <do>emit("ping", self, 1);</do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, Workers: 2}, src)
	id, _ := w.Spawn("p", spatial.Vec2{})
	st, err := w.Step()
	if !errors.Is(err, trigger.ErrCascadeDepth) {
		t.Fatalf("err = %v, want ErrCascadeDepth", err)
	}
	if st.TriggerRounds != w.Triggers().MaxCascade() {
		t.Fatalf("rounds = %d, want the cascade limit %d", st.TriggerRounds, w.Triggers().MaxCascade())
	}
	// One event stands queued at the limit: the one emitter's ping,
	// re-emitted by every round.
	if got := w.Triggers().Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	// The queue cleared, so the engine recovers once the emitter is gone:
	// the next tick drops nothing more and returns no error.
	if err := w.Despawn(id); err != nil {
		t.Fatal(err)
	}
	st, err = w.Step()
	if err != nil {
		t.Fatalf("post-overflow tick: %v", err)
	}
	if st.TriggerRounds != 0 || w.Triggers().Dropped() != 1 {
		t.Fatalf("post-overflow tick ran %d rounds, Dropped = %d; want 0 and still 1", st.TriggerRounds, w.Triggers().Dropped())
	}
}

func TestTriggerActionErrorContinuesBatch(t *testing.T) {
	// One bad trigger must not swallow the other events of the tick:
	// the good trigger still fires and the error surfaces from Step.
	src := `
<contentpack name="t">
  <schema table="u">
    <column name="n" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="poker" table="u" script="poke"/>
  <script name="poke">
fn on_tick(self) { emit("boom", self, 1); emit("count", self, 1); }
  </script>
  <trigger name="bad" event="boom">
    <do>get(self, "no_such_column");</do>
  </trigger>
  <trigger name="good" event="count">
    <do>add(self, "n", 1);</do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, Workers: 2}, src)
	id, _ := w.Spawn("poker", spatial.Vec2{})
	st, err := w.Step()
	if err == nil {
		t.Fatal("trigger action error must surface from Step")
	}
	if st.TriggerErrors != 1 {
		t.Fatalf("TriggerErrors = %d, want 1", st.TriggerErrors)
	}
	if got, _ := w.Get(id, "n"); got != entity.Int(1) {
		t.Fatalf("n = %v — the erroring trigger swallowed the rest of the batch", got)
	}
}

func TestTriggerFuelExhaustionSkips(t *testing.T) {
	// A trigger action that runs out of fuel is a skipped query: its
	// effects roll back, it is not an error, and the tick continues.
	src := `
<contentpack name="tf">
  <schema table="u">
    <column name="mark" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="poker" table="u" script="poke"/>
  <script name="poke">
fn on_tick(self) { emit("spin", self, 1); }
  </script>
  <trigger name="spinner" event="spin">
    <do>
      set(self, "mark", 1);
      let i = 0;
      while i &lt; 1000000 { i = i + 1; }
    </do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1, ScriptFuel: 5000, Workers: 2}, src)
	id, _ := w.Spawn("poker", spatial.Vec2{})
	st, err := w.Step()
	if err != nil {
		t.Fatalf("fuel exhaustion must not error the tick: %v", err)
	}
	if st.TriggerSkips != 1 {
		t.Fatalf("TriggerSkips = %d, want 1", st.TriggerSkips)
	}
	if st.TriggerErrors != 0 {
		t.Fatalf("TriggerErrors = %d, want 0", st.TriggerErrors)
	}
	if got, _ := w.Get(id, "mark"); got != entity.Int(0) {
		t.Fatalf("mark = %v — exhausted trigger invocation leaked a write", got)
	}
}

func TestRestoreClearsPendingTriggerEvents(t *testing.T) {
	// Events posted before a crash must not drain into the freshly
	// restored state: only the event posted after the restore fires.
	src := `
<contentpack name="r">
  <schema table="u">
    <column name="n" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="thing" table="u"/>
  <trigger name="count" event="evt">
    <do>add(self, "n", 1);</do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, src)
	id, _ := w.Spawn("thing", spatial.Vec2{})
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w.Post("evt", id, entity.Int(1))
	w.Post("evt", id, entity.Int(1))
	if err := w.Restore(snap); err != nil {
		t.Fatal(err)
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.TriggerFired != 0 {
		t.Fatalf("TriggerFired = %d — pre-crash events drained into restored state", st.TriggerFired)
	}
	if got, _ := w.Get(id, "n"); got != entity.Int(0) {
		t.Fatalf("n = %v, want 0", got)
	}
	fired := st.TriggerFired
	// The trigger itself survives (it is content): a post-restore event
	// still fires it, once.
	w.Post("evt", id, entity.Int(1))
	for i := 0; i < 2; i++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		fired += st.TriggerFired
	}
	if fired != 1 {
		t.Fatalf("post-restore ticks fired %d activations, want 1", fired)
	}
	if got, _ := w.Get(id, "n"); got != entity.Int(1) {
		t.Fatalf("post-restore trigger did not fire: n = %v", got)
	}
}

func TestRestoreResurrectsOnceTrigger(t *testing.T) {
	// A once trigger consumed after the snapshot must be fireable again
	// in the restored state — otherwise the restored run diverges from
	// a fresh run of the same snapshot.
	src := `
<contentpack name="ro">
  <schema table="u">
    <column name="n" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="thing" table="u"/>
  <trigger name="first" event="evt" once="true">
    <do>add(self, "n", 1);</do>
  </trigger>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, src)
	id, _ := w.Spawn("thing", spatial.Vec2{})
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w.Post("evt", id, entity.Int(1))
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if w.Triggers().Rules() != 0 {
		t.Fatal("once trigger not consumed")
	}
	if err := w.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if w.Triggers().Rules() != 1 {
		t.Fatal("restore did not resurrect the consumed once trigger")
	}
	w.Post("evt", id, entity.Int(1))
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	if got, _ := w.Get(id, "n"); got != entity.Int(1) {
		t.Fatalf("n = %v, want 1 — resurrected once trigger did not fire", got)
	}
}

func TestConsumedOnceMatchDiscardsSpeculativeCondError(t *testing.T) {
	// Two events match a once rule in one round; the first consumes it,
	// and the second's condition would error (its subject's table lacks
	// the column). Serial execution never evaluates that condition, so
	// the effect drain's speculative evaluation must be discarded — the
	// tick completes cleanly with no TriggerErrors.
	src := `
<contentpack name="spec">
  <schema table="a">
    <column name="ok" kind="int" default="1"/>
    <column name="n" kind="int"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <schema table="b">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="first" table="a" script="shout"/>
  <archetype name="second" table="b" script="shout"/>
  <script name="shout">
fn on_tick(self) { emit("hit", self, 1); }
  </script>
  <trigger name="fb" event="hit" once="true">
    <when>get(self, "ok") == 1</when>
    <do>add(self, "n", 1);</do>
  </trigger>
</contentpack>`
	for _, workers := range []int{1, 4} {
		w := loadPack(t, Config{Seed: 1, Workers: workers}, src)
		a, _ := w.Spawn("first", spatial.Vec2{X: 0, Y: 0})
		if _, err := w.Spawn("second", spatial.Vec2{X: 1, Y: 0}); err != nil {
			t.Fatal(err)
		}
		st, err := w.Step()
		if err != nil {
			t.Fatalf("workers=%d: speculative cond of a consumed once rule errored the tick: %v", workers, err)
		}
		if st.TriggerErrors != 0 {
			t.Fatalf("workers=%d: TriggerErrors = %d, want 0", workers, st.TriggerErrors)
		}
		if got, _ := w.Get(a, "n"); got != entity.Int(1) {
			t.Fatalf("workers=%d: n = %v, want 1", workers, got)
		}
	}
}

func TestIsFuelErrUnwrapsJoinChains(t *testing.T) {
	if !isFuelErr(script.ErrFuel) {
		t.Fatal("bare ErrFuel not detected")
	}
	wrapped := fmt.Errorf("rule %q action: %w", "x", fmt.Errorf("line 3: %w", script.ErrFuel))
	if !isFuelErr(wrapped) {
		t.Fatal("wrapped ErrFuel not detected")
	}
	joined := errors.Join(errors.New("other"), wrapped)
	if !isFuelErr(joined) {
		t.Fatal("ErrFuel inside an errors.Join chain not detected")
	}
	if isFuelErr(errors.New("boom")) {
		t.Fatal("unrelated error misdetected as fuel")
	}
}

func TestLastScriptErrorLowestEntityWins(t *testing.T) {
	// Two failing behaviors: the entity with the lowest id errors with
	// a distinguishable message. Whatever the worker count, Step must
	// report that one, not whichever worker finished last.
	src := `
<contentpack name="err">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="alpha" table="u" script="bad_alpha"/>
  <archetype name="beta" table="u" script="bad_beta"/>
  <script name="bad_alpha">
fn on_tick(self) { get(self, "missing_alpha"); }
  </script>
  <script name="bad_beta">
fn on_tick(self) { get(self, "missing_beta"); }
  </script>
</contentpack>`
	for _, workers := range []int{1, 2, 4} {
		w := loadPack(t, Config{Seed: 1, Workers: workers}, src)
		if _, err := w.Spawn("alpha", spatial.Vec2{X: 0, Y: 0}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := w.Spawn("beta", spatial.Vec2{X: float64(i + 1), Y: 0}); err != nil {
				t.Fatal(err)
			}
		}
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ScriptErrors != 4 {
			t.Fatalf("errors = %d, want 4", st.ScriptErrors)
		}
		if w.LastScriptError == nil || !strings.Contains(w.LastScriptError.Error(), "missing_alpha") {
			t.Fatalf("workers=%d: LastScriptError = %v, want the lowest entity's (missing_alpha)",
				workers, w.LastScriptError)
		}
	}
}

func TestTableNamesCacheInvalidation(t *testing.T) {
	w := New(Config{Seed: 1})
	if names := w.TableNames(); len(names) != 0 {
		t.Fatalf("names = %v", names)
	}
	s := entity.MustSchema(entity.Column{Name: "a", Kind: entity.KindInt})
	if _, err := w.CreateTable("zeta", s); err != nil {
		t.Fatal(err)
	}
	if names := w.TableNames(); len(names) != 1 || names[0] != "zeta" {
		t.Fatalf("names = %v", names)
	}
	if _, err := w.CreateTable("alpha", s); err != nil {
		t.Fatal(err)
	}
	names := w.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("cache not invalidated by CreateTable: %v", names)
	}
	// The public accessor hands out copies: mutating one must not
	// corrupt the cache.
	names[0] = "corrupted"
	if again := w.TableNames(); again[0] != "alpha" {
		t.Fatalf("TableNames cache aliased caller slice: %v", again)
	}
}

// physicsOrderPack: movers in one table, and the writes physics must
// interleave with. setv sets its own vx, setx its own x, selfadd adds
// to its own x; lo and hi add to the selfadd mover (id 3) from below
// and above its id, at magnitudes near 2^53 where any other summation
// order changes the bits; idle runs and emits nothing.
const physicsOrderPack = `
<contentpack name="physics-order">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
  </schema>
  <archetype name="lo" table="u" script="lo"/>
  <archetype name="setv" table="u" script="setv"/>
  <archetype name="plain" table="u"/>
  <archetype name="selfadd" table="u" script="selfadd"/>
  <archetype name="setx" table="u" script="setx"/>
  <archetype name="hi" table="u" script="hi"/>
  <archetype name="idle" table="u" script="idle"/>
  <script name="lo">fn on_tick(self) { add(3, "x", 9007199254740992); }</script>
  <script name="setv">fn on_tick(self) { set(self, "vx", 100.0); }</script>
  <script name="setx">fn on_tick(self) { set(self, "x", 7.0); }</script>
  <script name="selfadd">fn on_tick(self) { add(self, "x", 2.0); }</script>
  <script name="hi">fn on_tick(self) { add(3, "x", -9007199254740992); }</script>
  <script name="idle">fn on_tick(self) { let a = 1; }</script>
</contentpack>`

// TestPhysicsKeepsMergeOrder pins where velocity integration lands in
// the apply: after every write from a lower source id and after the
// entity's own behavior writes, before any write from a higher source
// id, with the velocity the tick started with — at any worker count and
// under both conflict policies.
func TestPhysicsKeepsMergeOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, policy := range []string{ConflictLastWrite, ConflictOCC} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", policy, workers)
			cfg := Config{Seed: 1, TickDT: 0.5, Workers: workers, ConflictPolicy: policy}
			spawn := func(w *World, arch string, x, y, vx, vy float64) entity.ID {
				t.Helper()
				id, err := w.Spawn(arch, spatial.Vec2{X: x, Y: y})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Set(id, "vx", entity.Float(vx)); err != nil {
					t.Fatal(err)
				}
				if err := w.Set(id, "vy", entity.Float(vy)); err != nil {
					t.Fatal(err)
				}
				return id
			}
			check := func(w *World, id entity.ID, col string, want float64) {
				t.Helper()
				v, err := w.Get(id, col)
				if err != nil {
					t.Fatal(err)
				}
				if got := v.Float(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: entity %d %s = %v, want %v", label, id, col, got, want)
				}
				if col == "x" {
					if p, ok := w.Pos(id); !ok || math.Float64bits(p.X) != math.Float64bits(want) {
						t.Fatalf("%s: entity %d indexed at %v, want x %v", label, id, p, want)
					}
				}
			}

			w := loadPack(t, cfg, physicsOrderPack)
			lo := spawn(w, "lo", 0, 0, 0, 0)
			setv := spawn(w, "setv", 10, 0, 2, 0)
			mover := spawn(w, "selfadd", 1, 0, 6, 0)
			setx := spawn(w, "setx", 20, 0, 2, 0)
			spawn(w, "hi", 0, 0, 0, 0)
			if lo != 1 || mover != 3 {
				t.Fatalf("%s: ids %d, %d; the pack's scripts target id 3", label, lo, mover)
			}
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
			// (a) the tick-start vx integrates, not the one set this tick.
			check(w, setv, "x", 11)
			check(w, setv, "vx", 100)
			// (b) the assignment lands first, then vx*dt.
			check(w, setx, "x", 8)
			// (c) 1 + 2^53 rounds to 2^53, its own + 2 is exact, the step
			// + 3 rounds to 2^53 + 4, and - 2^53 leaves 4. Integrating
			// before its own add, or first, gives 6; last gives 5; hi's
			// add before lo's gives 6.
			check(w, mover, "x", 4)

			// (d) and (e): a tick whose behaviors emit nothing still
			// integrates, and only the axes with a velocity.
			w = loadPack(t, cfg, physicsOrderPack)
			spawn(w, "idle", 0, 0, 0, 0)
			still := spawn(w, "plain", 3, 0, 2, 0)
			zero := spawn(w, "plain", negZero, 5, 0, -4)
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
			check(w, still, "x", 4)
			check(w, still, "y", 0)
			check(w, zero, "x", negZero)
			check(w, zero, "y", 3)
		}
	}
}
