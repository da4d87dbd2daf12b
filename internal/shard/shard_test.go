package shard

import (
	"math"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
)

// newRuntime builds an n-shard runtime over a 1000×1000 map with the
// drift crowd's empty "units" table on every shard.
func newRuntime(t *testing.T, n int, cfg Config) *Runtime {
	t.Helper()
	cfg.Shards = n
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.World.Width() == 0 {
		cfg.World = spatial.NewRect(0, 0, 1000, 1000)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := driftScenario.Seed(rt, Crowd{}); err != nil {
		t.Fatal(err)
	}
	return rt
}

func spawnUnit(t *testing.T, rt *Runtime, x, y, vx, vy float64) entity.ID {
	t.Helper()
	id, err := rt.SpawnRaw("units", map[string]entity.Value{
		"x": entity.Float(x), "y": entity.Float(y),
		"vx": entity.Float(vx), "vy": entity.Float(vy),
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPartitionerShapeAndLocate(t *testing.T) {
	p, err := NewPartitioner(spatial.NewRect(0, 0, 1000, 1000), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.cols != 2 || p.rows != 2 {
		t.Fatalf("4 shards → %d×%d, want 2×2", p.cols, p.rows)
	}
	cases := []struct {
		pos  spatial.Vec2
		want int
	}{
		{spatial.Vec2{X: 10, Y: 10}, 0},
		{spatial.Vec2{X: 990, Y: 10}, 1},
		{spatial.Vec2{X: 10, Y: 990}, 2},
		{spatial.Vec2{X: 990, Y: 990}, 3},
		// Interior boundaries belong to the right/top region.
		{spatial.Vec2{X: 500, Y: 0}, 1},
		{spatial.Vec2{X: 0, Y: 500}, 2},
		// Out-of-world positions clamp to an edge shard.
		{spatial.Vec2{X: -50, Y: -50}, 0},
		{spatial.Vec2{X: 2000, Y: 2000}, 3},
	}
	for _, c := range cases {
		if got := p.Locate(c.pos); got != c.want {
			t.Errorf("Locate(%v) = %d, want %d", c.pos, got, c.want)
		}
	}
	// Every region's center locates back to itself.
	for i := 0; i < p.N(); i++ {
		if got := p.Locate(p.Region(i).Center()); got != i {
			t.Errorf("Locate(center of region %d) = %d", i, got)
		}
	}
}

func TestPartitionerShapes(t *testing.T) {
	for n, want := range map[int][2]int{1: {1, 1}, 2: {2, 1}, 3: {3, 1}, 6: {3, 2}, 8: {4, 2}, 9: {3, 3}} {
		p, err := NewPartitioner(spatial.NewRect(0, 0, 100, 100), n)
		if err != nil {
			t.Fatal(err)
		}
		if p.cols != want[0] || p.rows != want[1] {
			t.Errorf("n=%d → %d×%d, want %d×%d", n, p.cols, p.rows, want[0], want[1])
		}
		if p.N() != n {
			t.Errorf("n=%d → N()=%d", n, p.N())
		}
	}
}

// TestPartitionerRefusesNonFiniteWorlds: a world rect with a NaN or
// infinite corner, or whose width or height overflows to +Inf, is
// refused at every shard count, while the shapes the CLIs, experiments
// and benchmark build (a side×side square, the same square widened by a
// margin, the 1-shard engine's unit square) are accepted.
func TestPartitionerRefusesNonFiniteWorlds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []spatial.Rect{
		{Min: spatial.Vec2{X: 0, Y: 0}, Max: spatial.Vec2{X: inf, Y: 100}},
		{Min: spatial.Vec2{X: -inf, Y: 0}, Max: spatial.Vec2{X: 100, Y: 100}},
		{Min: spatial.Vec2{X: 0, Y: -inf}, Max: spatial.Vec2{X: 100, Y: inf}},
		{Min: spatial.Vec2{X: nan, Y: 0}, Max: spatial.Vec2{X: 100, Y: 100}},
		{Min: spatial.Vec2{X: 0, Y: 0}, Max: spatial.Vec2{X: 100, Y: nan}},
		{Min: spatial.Vec2{X: -1e308, Y: 0}, Max: spatial.Vec2{X: 1e308, Y: 100}},
		{Min: spatial.Vec2{X: 0, Y: -1e308}, Max: spatial.Vec2{X: 100, Y: 1e308}},
	}
	good := []spatial.Rect{
		spatial.NewRect(0, 0, 1, 1),
		spatial.NewRect(0, 0, 400, 400),
		spatial.NewRect(0, 0, 2000, 2000),
		spatial.NewRect(-2000, -2000, 4000, 4000),
		spatial.NewRect(-1e307, -1e307, 1e307, 1e307),
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, r := range bad {
			if p, err := NewPartitioner(r, n); err == nil {
				t.Errorf("NewPartitioner(%v, %d) accepted it: xs %v ys %v", r, n, p.xs, p.ys)
			}
		}
		for _, r := range good {
			p, err := NewPartitioner(r, n)
			if err != nil {
				t.Errorf("NewPartitioner(%v, %d): %v", r, n, err)
				continue
			}
			for i := 0; i < p.N(); i++ {
				if got := p.Locate(p.Region(i).Center()); got != i {
					t.Errorf("%v at %d shards: Locate(center of region %d) = %d", r, n, i, got)
				}
			}
		}
	}
}

func TestRebalanceShiftsBoundaryTowardLoad(t *testing.T) {
	p, err := NewPartitioner(spatial.NewRect(0, 0, 1000, 1000), 2)
	if err != nil {
		t.Fatal(err)
	}
	before := p.xs[1]
	// All load on the left shard: the boundary must move left.
	for i := 0; i < 20; i++ {
		p.Rebalance([]int64{1000, 0}, 0.02)
	}
	if p.xs[1] >= before {
		t.Fatalf("boundary did not move toward load: %v → %v", before, p.xs[1])
	}
	// The shrink is bounded: regions keep a minimum width.
	if w := p.xs[1] - p.xs[0]; w < 1000*0.05/2-1e-9 {
		t.Fatalf("left region collapsed to width %v", w)
	}
	// Zero load is a no-op.
	x := p.xs[1]
	p.Rebalance([]int64{0, 0}, 0.02)
	if p.xs[1] != x {
		t.Fatal("rebalance with zero load moved a boundary")
	}
}

func TestHandoffAcrossBoundary(t *testing.T) {
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 25})
	// Starts on shard 0, moves right at 20 units/tick toward the x=500
	// boundary.
	id := spawnUnit(t, rt, 470, 100, 20, 0)
	rt.ShardWorld(0).SetBehavior(id, "wander")
	still := spawnUnit(t, rt, 100, 100, 0, 0)
	if rt.Owner(id) != 0 {
		t.Fatalf("owner = %d, want 0", rt.Owner(id))
	}
	for i := 0; i < 3; i++ { // x: 490, 510 → handoff
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Owner(id) != 1 {
		t.Fatalf("after crossing, owner = %d, want 1", rt.Owner(id))
	}
	if rt.HandoffTotal.Load() != 1 {
		t.Fatalf("HandoffTotal = %d, want 1", rt.HandoffTotal.Load())
	}
	// The row migrated exactly: velocity, default hp, and behavior ride
	// along; the entity keeps moving on its new shard.
	w1 := rt.ShardWorld(1)
	if hp, err := w1.Get(id, "hp"); err != nil || hp.Int() != 100 {
		t.Fatalf("hp after handoff = %v, %v", hp, err)
	}
	if beh, ok := w1.Behavior(id); !ok || beh != "wander" {
		t.Fatalf("behavior after handoff = %q, %v", beh, ok)
	}
	if rt.Owner(still) != 0 {
		t.Fatal("stationary entity migrated")
	}
	if got := rt.Entities(); got != 2 {
		t.Fatalf("entity total = %d, want 2", got)
	}
	pos, ok := w1.Pos(id)
	if !ok || pos.X != 530 {
		t.Fatalf("pos after 3 ticks = %v (ok=%v), want x=530", pos, ok)
	}
}

func TestGhostReplication(t *testing.T) {
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 30})
	a := spawnUnit(t, rt, 490, 100, 0, 0) // shard 0, near boundary
	b := spawnUnit(t, rt, 510, 100, 0, 0) // shard 1, near boundary
	far := spawnUnit(t, rt, 100, 900, 0, 0)
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w0, w1 := rt.ShardWorld(0), rt.ShardWorld(1)
	if !w0.IsGhost(b) || !w1.IsGhost(a) {
		t.Fatal("border entities were not mirrored as ghosts")
	}
	if w0.IsGhost(far) || w1.IsGhost(far) {
		t.Fatal("far entity should not be mirrored")
	}
	if _, ok := w1.TableOf(far); ok {
		t.Fatal("far entity materialized on shard 1")
	}
	// Boundary-straddling spatial query: a sees b through the ghost.
	found := false
	for _, id := range w0.AppendNearby(nil, a, 25) {
		if id == b {
			found = true
		}
	}
	if !found {
		t.Fatal("Nearby across the boundary missed the ghost")
	}
	// Ghosts are read-only mirrors: physics must not integrate them
	// even though the row carries the owner's velocity columns.
	if err := w1.Set(b, "vx", entity.Float(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	gp, _ := w0.Pos(b)
	op, _ := w1.Pos(b)
	if gp != op {
		t.Fatalf("ghost drifted from owner: ghost %v, owner %v", gp, op)
	}
	// Coarse shipping: a sub-epsilon wiggle does not ship; a real move
	// does. Stop the owner and settle the mirror first.
	if err := w1.Set(b, "vx", entity.Float(0)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	bx, err := w1.Get(b, "x")
	if err != nil {
		t.Fatal(err)
	}
	base := bx.Float()
	ships0 := rt.GhostShipTotal.Load()
	if err := w1.Set(b, "x", entity.Float(base+0.001)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if rt.GhostShipTotal.Load() != ships0 {
		t.Fatal("sub-epsilon drift shipped a ghost update")
	}
	if err := w1.Set(b, "x", entity.Float(base+5)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if rt.GhostShipTotal.Load() == ships0 {
		t.Fatal("super-epsilon move did not ship")
	}
	if gx, _ := w0.Get(b, "x"); gx.Float() != base+5 {
		t.Fatalf("ghost x = %v, want %v", gx.Float(), base+5)
	}
	// Leaving the band expires the mirror.
	if err := w1.Set(b, "x", entity.Float(900)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w0.TableOf(b); ok {
		t.Fatal("ghost not expired after leaving the band")
	}
	if rt.Ghosts() != 1 { // only a's mirror on shard 1 remains
		t.Fatalf("Ghosts() = %d, want 1", rt.Ghosts())
	}
}

func TestHandoffReplacesGhost(t *testing.T) {
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 40})
	id := spawnUnit(t, rt, 480, 100, 15, 0)
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w1 := rt.ShardWorld(1)
	if !w1.IsGhost(id) {
		t.Fatal("expected a ghost mirror on shard 1 before crossing")
	}
	for i := 0; i < 2; i++ { // 495, 510 → crosses
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Owner(id) != 1 || w1.IsGhost(id) {
		t.Fatalf("authoritative row did not replace ghost (owner=%d ghost=%v)",
			rt.Owner(id), w1.IsGhost(id))
	}
	// The old owner now holds the mirror instead.
	if !rt.ShardWorld(0).IsGhost(id) {
		t.Fatal("old owner should mirror the departed entity")
	}
	if got := rt.Entities(); got != 1 {
		t.Fatalf("entity total = %d, want 1", got)
	}
}

func TestDespawnedGhostSelfHeals(t *testing.T) {
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 30})
	// Owned by shard 1, drifting so a Coarse ship is due every barrier.
	b := spawnUnit(t, rt, 510, 100, 1, 0)
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w0 := rt.ShardWorld(0)
	if !w0.IsGhost(b) {
		t.Fatal("no ghost mirror on shard 0")
	}
	// A combat script on shard 0 can despawn any id Nearby returns —
	// including a ghost. That must not wedge later barriers.
	if err := w0.Despawn(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatalf("barrier wedged after ghost despawn: %v", err)
		}
	}
	// The mirror is derived state: it re-materializes from the owner.
	if !w0.IsGhost(b) {
		t.Fatal("despawned ghost did not self-heal")
	}
	gp, _ := w0.Pos(b)
	op, _ := rt.ShardWorld(1).Pos(b)
	if gp.Dist(op) > 1 { // within one tick of Coarse drift
		t.Fatalf("healed ghost too stale: ghost %v, owner %v", gp, op)
	}
}

func TestGhostFieldKeepsNativeKind(t *testing.T) {
	// A GhostFields spec naming an int column (hp) must mirror it as an
	// int — shipping it as float would wedge every subsequent barrier
	// on the destination table's kind check.
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 30, GhostFields: []replica.FieldSpec{
		{Name: "x", Class: replica.Coarse, Epsilon: 0.1},
		{Name: "y", Class: replica.Coarse, Epsilon: 0.1},
		{Name: "hp", Class: replica.Exact},
	}})
	b := spawnUnit(t, rt, 510, 100, 0, 0)
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w0, w1 := rt.ShardWorld(0), rt.ShardWorld(1)
	if !w0.IsGhost(b) {
		t.Fatal("no ghost mirror on shard 0")
	}
	if err := w1.Set(b, "hp", entity.Int(55)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // Exact-class change must ship on the next barrier
		if _, err := rt.Step(); err != nil {
			t.Fatalf("barrier wedged on int ghost field: %v", err)
		}
	}
	hp, err := w0.Get(b, "hp")
	if err != nil || hp.Kind() != entity.KindInt || hp.Int() != 55 {
		t.Fatalf("ghost hp = %v (kind %v), err %v; want int 55", hp, hp.Kind(), err)
	}
}

// TestNonNumericGhostFieldShips: a string column under an Exact spec
// ships by equality instead of being silently skipped, while non-Exact
// classes on non-numeric columns (no distance to compare against an
// epsilon) count into GhostFieldSkips rather than wedging or clobbering.
func TestNonNumericGhostFieldShips(t *testing.T) {
	// Two shards with the boundary at x = 100, a raw table holding string
	// columns, an entity just inside the border band, and string fields
	// in the ghost specs: label as Exact, mood as Coarse (unshippable).
	rt, err := New(Config{
		Seed: 3, Shards: 2, World: spatial.NewRect(0, 0, 200, 100),
		CellSize: 16, TickDT: 0.5, GhostBand: 40,
		GhostFields: []replica.FieldSpec{
			{Name: "x", Class: replica.Coarse, Epsilon: 0.1, MaxAge: 5},
			{Name: "label", Class: replica.Exact},
			{Name: "mood", Class: replica.Coarse, Epsilon: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := rt.CreateTable("npcs", entity.MustSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
		entity.Column{Name: "label", Kind: entity.KindString},
		entity.Column{Name: "mood", Kind: entity.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	id, err := rt.SpawnRaw("npcs", map[string]entity.Value{
		"x": entity.Float(95), "y": entity.Float(50),
		"label": entity.Str("alpha"), "mood": entity.Str("calm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w0, w1 := rt.ShardWorld(0), rt.ShardWorld(1)
	if !w1.IsGhost(id) {
		t.Fatal("entity at x=95 has no ghost mirror on shard 1")
	}
	if got, _ := w1.Get(id, "label"); got != entity.Str("alpha") {
		t.Fatalf("initial mirror label = %v, want alpha", got)
	}

	if err := w0.Set(id, "label", entity.Str("beta")); err != nil {
		t.Fatal(err)
	}
	st, err := rt.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := w1.Get(id, "label"); got != entity.Str("beta") {
		t.Fatalf("Exact string change did not ship: mirror label = %v", got)
	}
	if st.GhostFieldSkips == 0 {
		t.Fatal("Coarse string field evaluated without counting a skip")
	}

	// A Coarse string change must not ship (and must not error).
	if err := w0.Set(id, "mood", entity.Str("angry")); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	if got, _ := w1.Get(id, "mood"); got != entity.Str("calm") {
		t.Fatalf("Coarse string field shipped: mirror mood = %v", got)
	}
	if rt.GhostFieldSkipTotal.Load() == 0 {
		t.Fatal("GhostFieldSkipTotal stayed zero")
	}
}

func TestRestoredOrphanGhostsReconcile(t *testing.T) {
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 30})
	b := spawnUnit(t, rt, 510, 100, 0, 0) // shard 1, mirrored into shard 0
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w0, w1 := rt.ShardWorld(0), rt.ShardWorld(1)
	snap, err := w0.Snapshot() // captures the mirror row
	if err != nil {
		t.Fatal(err)
	}
	// Owner drifts out of the band: mirror and rec both expire.
	if err := w1.Set(b, "x", entity.Float(900)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if w0.IsGhost(b) {
		t.Fatal("mirror should have expired")
	}
	// Case 1: restore resurrects the mirror row with no runtime rec
	// while the owner is OUT of band — the sweep must expire it.
	if err := w0.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatalf("barrier failed on out-of-band orphan mirror: %v", err)
	}
	if w0.IsGhost(b) {
		t.Fatal("out-of-band orphan mirror not expired")
	}
	// Case 2: owner back IN band, restore the orphan again — creation
	// must adopt (re-snapshot) instead of colliding on InsertRow.
	if err := w1.Set(b, "x", entity.Float(505)); err != nil {
		t.Fatal(err)
	}
	if err := w0.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatalf("barrier failed on in-band orphan mirror: %v", err)
	}
	if !w0.IsGhost(b) {
		t.Fatal("in-band orphan mirror not re-adopted")
	}
	if gx, _ := w0.Get(b, "x"); gx.Float() != 505 {
		t.Fatalf("adopted mirror stale: x = %v, want 505 (snapshot held 510)", gx.Float())
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatalf("subsequent barrier wedged: %v", err)
		}
	}
}

func TestShardSnapshotPreservesGhostMarks(t *testing.T) {
	rt := newRuntime(t, 2, Config{TickDT: 1, GhostBand: 30})
	b := spawnUnit(t, rt, 510, 100, 0, 0) // shard 1, mirrored into shard 0
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	w0 := rt.ShardWorld(0)
	if !w0.IsGhost(b) {
		t.Fatal("no ghost mirror on shard 0")
	}
	snap, err := w0.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Without the ghost marks the restored shard would claim its
	// neighbor's entity as local, and the next barrier's migration
	// would collide with the owner's row.
	if !w0.IsGhost(b) {
		t.Fatal("restore dropped the ghost mark")
	}
	if w0.LocalEntities() != 0 {
		t.Fatalf("restored shard claims %d local entities, want 0", w0.LocalEntities())
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatalf("barrier failed after restore: %v", err)
		}
	}
	if got := rt.Entities(); got != 1 {
		t.Fatalf("entity total = %d, want 1", got)
	}
}

func TestScriptIDAllocatorsDisjoint(t *testing.T) {
	rt := newRuntime(t, 4, Config{})
	seen := map[entity.ID]int{}
	for i := 0; i < rt.Shards(); i++ {
		w := rt.ShardWorld(i)
		for k := 0; k < 50; k++ {
			id, err := w.SpawnRaw("units", map[string]entity.Value{
				"x": entity.Float(1), "y": entity.Float(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("id %d allocated by shards %d and %d", id, prev, i)
			}
			seen[id] = i
		}
	}
}
