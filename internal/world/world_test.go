package world

import (
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

const arenaPack = `
<contentpack name="arena">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="faction" kind="string" default="neutral"/>
    <column name="kills" kind="int"/>
  </schema>
  <archetype name="grunt" table="units" script="hunt">
    <set column="hp" value="40"/>
    <set column="faction" value="red"/>
  </archetype>
  <archetype name="dummy" table="units">
    <set column="hp" value="10"/>
    <set column="faction" value="blue"/>
  </archetype>
  <script name="hunt" restricted="true">
fn on_tick(self) {
  let foes = nearby(self, 15.0);
  if len(foes) > 0 {
    emit("contact", self, len(foes));
  }
}
  </script>
  <trigger name="count-contacts" event="contact">
    <when>amount &gt; 0</when>
    <do>set(self, "kills", get(self, "kills") + 1);</do>
  </trigger>
</contentpack>`

func loadArena(t *testing.T) *World {
	t.Helper()
	c, errs := content.LoadAndCompile(strings.NewReader(arenaPack))
	if len(errs) > 0 {
		t.Fatalf("pack: %v", errs)
	}
	w := New(Config{Seed: 1})
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSpawnAndSpatialIndexSync(t *testing.T) {
	w := loadArena(t)
	id, err := w.Spawn("grunt", spatial.Vec2{X: 10, Y: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := w.Pos(id); !ok || p != (spatial.Vec2{X: 10, Y: 10}) {
		t.Fatalf("pos = %v, %v", p, ok)
	}
	// Moving via Set keeps the index in sync (change-notification path).
	if err := w.Set(id, "x", entity.Float(50)); err != nil {
		t.Fatal(err)
	}
	if p, _ := w.Pos(id); p.X != 50 {
		t.Fatalf("index out of sync after Set: %v", p)
	}
	if err := w.Despawn(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Pos(id); ok {
		t.Fatal("despawned entity still indexed")
	}
	if w.Entities() != 0 {
		t.Fatalf("entities = %d", w.Entities())
	}
}

func TestNearbyIsSortedAndExcludesSelf(t *testing.T) {
	w := loadArena(t)
	a, _ := w.Spawn("grunt", spatial.Vec2{X: 0, Y: 0})
	b, _ := w.Spawn("dummy", spatial.Vec2{X: 3, Y: 0})
	c, _ := w.Spawn("dummy", spatial.Vec2{X: 0, Y: 4})
	_, _ = b, c
	got := w.AppendNearby(nil, a, 10)
	if len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("nearby = %v", got)
	}
	if ids := w.AppendNearby(nil, a, 1); len(ids) != 0 {
		t.Fatalf("tight radius = %v", ids)
	}
}

func TestScriptsTriggersAndTick(t *testing.T) {
	w := loadArena(t)
	g, _ := w.Spawn("grunt", spatial.Vec2{X: 0, Y: 0})
	w.Spawn("dummy", spatial.Vec2{X: 5, Y: 0})
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptCalls != 1 { // only the grunt has a behavior
		t.Fatalf("script calls = %d", st.ScriptCalls)
	}
	if st.TriggerFired != 1 {
		t.Fatalf("trigger fired = %d", st.TriggerFired)
	}
	// The trigger incremented the grunt's kills counter.
	if got := mustGet(t, w, g, "kills"); got != entity.Int(1) {
		t.Fatalf("kills = %v", got)
	}
	if st.FuelUsed <= 0 {
		t.Fatal("fuel accounting missing")
	}
	if w.Tick() != 1 {
		t.Fatalf("tick = %d", w.Tick())
	}
}

func mustGet(t *testing.T, w *World, id entity.ID, col string) entity.Value {
	t.Helper()
	v, err := w.Get(id, col)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPhysicsIntegration(t *testing.T) {
	w := loadArena(t)
	id, _ := w.Spawn("dummy", spatial.Vec2{X: 0, Y: 0})
	w.Set(id, "vx", entity.Float(10))
	w.Set(id, "vy", entity.Float(-5))
	for i := 0; i < 10; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := w.Pos(id)
	// 10 ticks × 0.1 s × (10, -5) = (10, -5)
	if p.X < 9.9 || p.X > 10.1 || p.Y > -4.9 || p.Y < -5.1 {
		t.Fatalf("integrated pos = %v", p)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	w := loadArena(t)
	g, _ := w.Spawn("grunt", spatial.Vec2{X: 1, Y: 2})
	w.Spawn("dummy", spatial.Vec2{X: 5, Y: 0})
	w.Set(g, "hp", entity.Int(7))
	for i := 0; i < 3; i++ {
		w.Step()
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tickBefore := w.Tick()
	killsBefore := mustGet(t, w, g, "kills")

	// Mutate further, then restore.
	w.Set(g, "hp", entity.Int(999))
	w.Spawn("dummy", spatial.Vec2{X: 9, Y: 9})
	w.Step()
	if err := w.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if w.Tick() != tickBefore {
		t.Fatalf("tick = %d, want %d", w.Tick(), tickBefore)
	}
	if got := mustGet(t, w, g, "hp"); got != entity.Int(7) {
		t.Fatalf("hp = %v", got)
	}
	if got := mustGet(t, w, g, "kills"); got != killsBefore {
		t.Fatalf("kills = %v, want %v", got, killsBefore)
	}
	if w.Entities() != 2 {
		t.Fatalf("entities = %d, want 2", w.Entities())
	}
	// The spatial index must be rebuilt: behaviors still run.
	if p, ok := w.Pos(g); !ok || p == (spatial.Vec2{}) {
		t.Fatalf("restored pos = %v, %v", p, ok)
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptCalls != 1 {
		t.Fatalf("post-restore script calls = %d", st.ScriptCalls)
	}
}

func TestFuelBudgetSkipsRunawayScripts(t *testing.T) {
	src := `
<contentpack name="p">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="spinner" table="u" script="spin"/>
  <script name="spin">
fn on_tick(self) {
  let i = 0;
  while i &lt; 1000000 { i = i + 1; }
}
  </script>
</contentpack>`
	c, errs := content.LoadAndCompile(strings.NewReader(src))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	w := New(Config{Seed: 1, ScriptFuel: 5000})
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Spawn("spinner", spatial.Vec2{X: float64(i), Y: 0})
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptSkips == 0 {
		t.Fatal("runaway script should exhaust fuel and skip remaining entities")
	}
	if st.ScriptErrors != 0 {
		t.Fatalf("fuel exhaustion must not count as script error, got %d", st.ScriptErrors)
	}
}

func TestScriptErrorsDoNotStopTick(t *testing.T) {
	src := `
<contentpack name="p">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="bad" table="u" script="broken"/>
  <script name="broken">
fn on_tick(self) { get(self, "no_such_column"); }
  </script>
</contentpack>`
	c, errs := content.LoadAndCompile(strings.NewReader(src))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	w := New(Config{Seed: 1})
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	w.Spawn("bad", spatial.Vec2{})
	w.Spawn("bad", spatial.Vec2{X: 1})
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScriptErrors != 2 {
		t.Fatalf("script errors = %d, want 2", st.ScriptErrors)
	}
	if w.LastScriptError == nil {
		t.Fatal("LastScriptError not recorded")
	}
}

func TestSpawnErrors(t *testing.T) {
	w := loadArena(t)
	if _, err := w.Spawn("nope", spatial.Vec2{}); err == nil {
		t.Fatal("unknown archetype should fail")
	}
	if _, err := w.SpawnRaw("nope", nil); err == nil {
		t.Fatal("unknown table should fail")
	}
	if err := w.Despawn(999); err == nil {
		t.Fatal("unknown entity should fail")
	}
	if _, err := w.Get(999, "hp"); err == nil {
		t.Fatal("get unknown entity should fail")
	}
	if err := w.Set(999, "hp", entity.Int(1)); err == nil {
		t.Fatal("set unknown entity should fail")
	}
}

func TestDuplicateLoadFails(t *testing.T) {
	w := loadArena(t)
	c, _ := content.LoadAndCompile(strings.NewReader(arenaPack))
	if err := w.LoadPack(c); err == nil {
		t.Fatal("loading the same pack twice should fail on duplicate tables")
	}
}

func TestSpawnFromPackSpawns(t *testing.T) {
	src := `
<contentpack name="p">
  <schema table="u">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="rock" table="u"/>
  <spawn archetype="rock" count="7" x="100" y="100" spread="10"/>
</contentpack>`
	c, errs := content.LoadAndCompile(strings.NewReader(src))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	w := New(Config{Seed: 42})
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	if w.Entities() != 7 {
		t.Fatalf("entities = %d", w.Entities())
	}
	tab, _ := w.Table("u")
	tab.Scan(func(_ entity.ID, row []entity.Value) bool {
		x := row[tab.Schema().MustCol("x")].Float()
		if x < 90 || x > 110 {
			t.Fatalf("spawned x = %v outside spread", x)
		}
		return true
	})
}

// TestEndToEndShard exercises every world subsystem together for many
// ticks: scripted behavior mutating state, triggers cascading, a
// table scan between ticks, snapshot/restore mid-run.
func TestEndToEndShard(t *testing.T) {
	const pack = `
<contentpack name="stress">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="stress" kind="int"/>
  </schema>
  <archetype name="mob" table="units" script="mill">
    <set column="hp" value="60"/>
  </archetype>
  <script name="mill">
fn on_tick(self) {
  move_toward(self, 50.0, 50.0, 0.8);
  let crowd = nearby(self, 6.0);
  if len(crowd) > 4 {
    emit("crowded", self, len(crowd));
  }
}
  </script>
  <trigger name="stress-up" event="crowded">
    <when>amount &gt; 4</when>
    <do>set(self, "stress", get(self, "stress") + 1);</do>
  </trigger>
</contentpack>`
	c, errs := content.LoadAndCompile(strings.NewReader(pack))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	w := New(Config{Seed: 5, CellSize: 8})
	if err := w.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := w.Spawn("mob", spatial.Vec2{X: float64(i * 3 % 100), Y: float64(i * 7 % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	var snap []byte
	for tick := 0; tick < 120; tick++ {
		st, err := w.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if st.ScriptErrors > 0 {
			t.Fatalf("tick %d: script error: %v", tick, w.LastScriptError)
		}
		if tick == 60 {
			snap, err = w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Everyone converged on the rally point; crowding must have fired.
	units, _ := w.Table("units")
	stressCol := units.Schema().MustCol("stress")
	stressed := 0
	units.Scan(func(_ entity.ID, row []entity.Value) bool {
		if row[stressCol].Int() > 0 {
			stressed++
		}
		return true
	})
	if stressed == 0 {
		t.Fatal("no entity ever got crowded; simulation shape wrong")
	}
	// Restore mid-run snapshot and keep simulating without errors.
	if err := w.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if w.Tick() != 61 {
		t.Fatalf("restored tick = %d", w.Tick())
	}
	for tick := 0; tick < 30; tick++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ScriptCalls != 60 {
			t.Fatalf("post-restore script calls = %d, want 60", st.ScriptCalls)
		}
	}
	if w.Entities() != 60 {
		t.Fatalf("entities = %d", w.Entities())
	}
}
