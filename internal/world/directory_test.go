package world

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

func checkDir(t *testing.T, w *World, when string) {
	t.Helper()
	if err := w.checkDirectory(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestOrphanMarksRejected: a behavior, ghost mark or ghost route lives
// on the entity's directory record, so naming an id with no row is
// refused and leaves nothing behind for counts or a later Despawn to
// trip over.
func TestOrphanMarksRejected(t *testing.T) {
	w := New(Config{})
	if w.SetGhost(999, true) {
		t.Fatal("SetGhost accepted an id with no row")
	}
	if w.SetBehavior(999, "hunt") {
		t.Fatal("SetBehavior accepted an id with no row")
	}
	if w.SetGhostRoute(999, 1) {
		t.Fatal("SetGhostRoute accepted an id with no row")
	}
	if w.GhostCount() != 0 || w.LocalEntities() != 0 || w.Entities() != 0 || w.IsGhost(999) {
		t.Fatalf("orphan marks counted: ghosts %d, local %d, entities %d", w.GhostCount(), w.LocalEntities(), w.Entities())
	}
	if _, ok := w.Behavior(999); ok {
		t.Fatal("orphan behavior recorded")
	}
	if _, ok := w.GhostRoute(999); ok || w.forwardingOn() {
		t.Fatal("orphan route installed")
	}
	checkDir(t, w, "empty world")

	w = loadArena(t)
	id, _ := w.Spawn("dummy", spatial.Vec2{X: 1, Y: 1})
	if w.SetGhostRoute(id, 1) {
		t.Fatal("SetGhostRoute routed an entity this world owns")
	}
	if !w.SetGhost(id, true) || !w.SetGhostRoute(id, 2) || w.SetGhostRoute(id, -1) {
		t.Fatal("ghost marking or routing refused a mirror row, or took a negative shard")
	}
	if o, ok := w.GhostRoute(id); !ok || o != 2 || !w.forwardingOn() {
		t.Fatalf("route = %d %v", o, ok)
	}
	checkDir(t, w, "routed ghost")
	w.SetGhost(id, false) // unmarking drops the route
	if _, ok := w.GhostRoute(id); ok || w.forwardingOn() {
		t.Fatal("unmarked ghost kept its route")
	}
	checkDir(t, w, "unmarked ghost")
	w.SetGhost(id, true)
	w.SetGhostRoute(id, 1)
	w.SetBehavior(id, "hunt")
	if err := w.Despawn(id); err != nil {
		t.Fatal(err)
	}
	if w.GhostCount() != 0 || w.forwardingOn() || w.IsGhost(id) {
		t.Fatal("despawn left marks behind")
	}
	if _, ok := w.Behavior(id); ok {
		t.Fatal("despawn left the behavior behind")
	}
	checkDir(t, w, "despawned ghost")
}

// TestOrphanRosterRestoreFails: a snapshot whose behavior roster or
// ghost list names an entity without a row, or whose routes name a
// non-ghost, is corrupt; Restore reports the lowest such id as a
// *RosterError instead of inventing marks.
func TestOrphanRosterRestoreFails(t *testing.T) {
	w := loadArena(t)
	w.Spawn("grunt", spatial.Vec2{X: 1, Y: 2})
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		roster string
		edit   func(*snapshotDoc)
	}{
		{"behaviors", func(d *snapshotDoc) { d.Behaviors[41] = "hunt"; d.Behaviors[40] = "hunt" }},
		{"ghosts", func(d *snapshotDoc) { d.Ghosts = append(d.Ghosts, 40) }},
		{"routes", func(d *snapshotDoc) { d.Routes = map[entity.ID]int{40: 1, 1: 2} }}, // 1 is no ghost
	} {
		var doc snapshotDoc
		if err := json.Unmarshal(snap, &doc); err != nil {
			t.Fatal(err)
		}
		tc.edit(&doc)
		bad, _ := json.Marshal(doc)
		var re *RosterError
		wantID := entity.ID(40)
		if tc.roster == "routes" {
			wantID = 1
		}
		if err := w.Restore(bad); !errors.As(err, &re) || re.Roster != tc.roster || re.ID != wantID {
			t.Fatalf("%s: Restore = %v, want a RosterError for entity %d", tc.roster, err, wantID)
		}
		if w.GhostCount() != 0 || w.LocalEntities() < 0 {
			t.Fatalf("%s: failed restore left %d ghosts, %d local", tc.roster, w.GhostCount(), w.LocalEntities())
		}
		checkDir(t, w, "failed restore of "+tc.roster)
	}
	if err := w.Restore(snap); err != nil {
		t.Fatal(err)
	}
	checkDir(t, w, "good restore")
}

// TestDirectoryInvariantsAcrossLifecycle checks the directory after
// every step of a world that spawns, moves (behaviors, physics, row
// Sets), despawns, marks and routes ghosts, resets and restores.
func TestDirectoryInvariantsAcrossLifecycle(t *testing.T) {
	w := loadArena(t)
	var ids []entity.ID
	for i := 0; i < 40; i++ {
		arch := "dummy"
		if i%2 == 0 {
			arch = "grunt"
		}
		id, err := w.Spawn(arch, spatial.Vec2{X: float64(i%8) * 6, Y: float64(i/8) * 6})
		if err != nil {
			t.Fatal(err)
		}
		w.Set(id, "vx", entity.Float(float64(i%5-2)*40))
		w.Set(id, "vy", entity.Float(float64(i%3-1)*40))
		ids = append(ids, id)
	}
	checkDir(t, w, "spawned")
	var snap []byte
	for tick := 0; tick < 30; tick++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		checkDir(t, w, "tick")
		switch tick {
		case 5:
			w.Despawn(ids[3])
			w.Despawn(ids[4])
			w.Set(ids[5], "x", entity.Float(1e12))
			w.Set(ids[6], "y", entity.Float(-3000))
		case 8:
			w.SetGhost(ids[10], true)
			w.SetGhost(ids[11], true)
			w.SetGhostRoute(ids[10], 1)
			w.SetGhostRoute(ids[11], 3)
		case 12:
			var err error
			if snap, err = w.Snapshot(); err != nil {
				t.Fatal(err)
			}
			w.Spawn("grunt", spatial.Vec2{X: 2, Y: 2})
			w.SetBehavior(ids[12], "")
		case 18:
			if err := w.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if o, ok := w.GhostRoute(ids[11]); !w.IsGhost(ids[10]) || !ok || o != 3 {
				t.Fatal("restore must bring back ghost marks and routes")
			}
		case 24:
			w.ResetState()
			checkDir(t, w, "reset")
			w.Spawn("grunt", spatial.Vec2{X: 0, Y: 0})
			w.Spawn("dummy", spatial.Vec2{X: 3, Y: 0})
		}
		checkDir(t, w, "after edits")
	}
}

// TestDirectoryRebindsLateScripts: a behavior attached before its
// script loads runs once it does.
func TestDirectoryRebindsLateScripts(t *testing.T) {
	w := New(Config{Seed: 1})
	s, _ := entity.NewSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
		entity.Column{Name: "n", Kind: entity.KindInt},
	)
	if _, err := w.CreateTable("u", s); err != nil {
		t.Fatal(err)
	}
	id, err := w.SpawnRaw("u", map[string]entity.Value{"x": entity.Float(1), "y": entity.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !w.SetBehavior(id, "count") {
		t.Fatal("SetBehavior refused a live entity")
	}
	checkDir(t, w, "unloaded script")
	c, errs := content.LoadAndCompile(strings.NewReader(`
<contentpack name="late">
  <script name="count">fn on_tick(self) { add(self, "n", 1); }</script>
</contentpack>`))
	if len(errs) > 0 {
		t.Fatalf("pack: %v", errs)
	}
	if err := w.LoadContent(c); err != nil {
		t.Fatal(err)
	}
	checkDir(t, w, "loaded script")
	if st, err := w.Step(); err != nil || st.ScriptCalls != 1 {
		t.Fatalf("late-bound behavior: calls %d, err %v", st.ScriptCalls, err)
	}
}

// TestOwnedListTracksTheDirectory: the owned list stays the ascending
// list of non-ghost records through the edits that queue or stale its
// entries — a despawned id re-inserted under its recycled record, ghost
// flips back and forth between syncs, an id below the crowd's —
// the tick's roster is read off it in id order, AppendOwned reads a
// table's owned ids off it between ticks, and Check catches a list out
// of order, short an entity or pointing at the wrong record.
func TestOwnedListTracksTheDirectory(t *testing.T) {
	w := loadArena(t)
	base := w.Entities()
	w.SetIDAllocator(1000, 1)
	var ids []entity.ID
	for i := 0; i < 12; i++ {
		id, err := w.Spawn("grunt", spatial.Vec2{X: float64(i), Y: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	step := func(when string) {
		t.Helper()
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
		checkDir(t, w, when)
		for i := 1; i < len(w.rosterBuf); i++ {
			if w.rosterBuf[i-1].id >= w.rosterBuf[i].id {
				t.Fatalf("%s: roster out of order: %v", when, w.rosterBuf)
			}
		}
	}
	step("spawned")
	units, _ := w.Table("units")
	vals, err := units.Row(ids[4])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Despawn(ids[4]); err != nil {
		t.Fatal(err)
	}
	if err := w.InsertRow(ids[4], "units", vals); err != nil {
		t.Fatal(err)
	}
	w.SetBehavior(ids[4], "hunt")
	checkDir(t, w, "re-inserted under a recycled record")
	w.SetGhost(ids[7], true)
	w.SetGhost(ids[7], false)
	w.SetGhost(ids[8], true)
	if err := w.InsertRow(500, "units", vals); err != nil { // below the crowd's ids
		t.Fatal(err)
	}
	props, err := w.CreateTable("props", entity.MustSchema(entity.Column{Name: "n", Kind: entity.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InsertRow(600, "props", []entity.Value{entity.Int(1)}); err != nil {
		t.Fatal(err)
	}
	checkDir(t, w, "ghost flips, a low id and a prop")
	if got := w.AppendOwned(nil, props); !slices.Equal(got, []entity.ID{600}) {
		t.Fatalf("AppendOwned(props) = %v, want [600]", got)
	}
	var want []entity.ID
	for _, id := range units.IDs() {
		if !w.IsGhost(id) {
			want = append(want, id)
		}
	}
	slices.Sort(want)
	if got := w.AppendOwned(nil, units); !slices.Equal(got, want) || slices.Contains(got, ids[8]) {
		t.Fatalf("AppendOwned(units) = %v, want %v", got, want)
	}
	step("after the edits")
	if n := len(w.dir.owned); n != base+13 {
		t.Fatalf("owned list holds %d entities, want %d (one ghost among %d rows)", n, base+13, w.Entities())
	}

	for _, corrupt := range []struct {
		name string
		edit func([]ownRef) []ownRef
	}{
		{"swapped", func(o []ownRef) []ownRef { o[2], o[3] = o[3], o[2]; return o }},
		{"dropped", func(o []ownRef) []ownRef { return append(o[:5:5], o[6:]...) }},
		{"wrong record", func(o []ownRef) []ownRef { o[1].rec = o[9].rec; return o }},
	} {
		saved := append([]ownRef(nil), w.dir.owned...)
		w.dir.owned = corrupt.edit(append([]ownRef(nil), saved...))
		if err := w.Check(); err == nil {
			t.Errorf("%s owned list passed Check", corrupt.name)
		}
		w.dir.owned = saved
	}
	checkDir(t, w, "restored list")
}
