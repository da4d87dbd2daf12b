package shard

import (
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

func unitSchema(t *testing.T) *entity.Schema {
	t.Helper()
	s, err := DriftingCrowdSchema()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newRuntime builds an n-shard runtime over a 1000×1000 map with a
// "units" table on every shard.
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
	for i := 0; i < rt.Shards(); i++ {
		if _, err := rt.ShardWorld(i).CreateTable("units", unitSchema(t)); err != nil {
			t.Fatal(err)
		}
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
	for i, r := range p.Regions() {
		if got := p.Locate(r.Center()); got != i {
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
	for _, id := range w0.Nearby(a, 25) {
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

// scenario spawns count drifting units identically for any shard count
// (the package's canonical ForEachCrowdSpawn stream).
func scenario(t *testing.T, rt *Runtime, count int, seed int64) {
	t.Helper()
	err := ForEachCrowdSpawn(count, 1000, seed, 30, func(vals map[string]entity.Value) error {
		_, err := rt.SpawnRaw("units", vals)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossShardCounts(t *testing.T) {
	// The hash must be invariant across the whole (shards × workers)
	// grid: region sharding preserves rows bit-exactly through handoff,
	// and the world's state-effect tick makes the per-shard step
	// independent of its worker count.
	const units, ticks = 300, 60
	var hashes []uint64
	for _, workers := range []int{1, 2} {
		for _, n := range []int{1, 2, 4} {
			rt := newRuntime(t, n, Config{Seed: 7, TickDT: 0.5, GhostBand: 25,
				RebalanceEvery: 10, Workers: workers})
			scenario(t, rt, units, 1234)
			if err := rt.Sync(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ticks; i++ {
				if _, err := rt.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if got := rt.Entities(); got != units {
				t.Fatalf("%d shards: entity total %d, want %d", n, got, units)
			}
			hashes = append(hashes, rt.Hash())
			if n > 1 && rt.HandoffTotal.Load() == 0 {
				t.Fatalf("%d shards: no handoffs — scenario not exercising boundaries", n)
			}
			if n > 1 && rt.GhostSnapshotTotal.Load() == 0 {
				t.Fatalf("%d shards: no ghosts materialized", n)
			}
		}
	}
	for i, h := range hashes {
		if h != hashes[0] {
			t.Fatalf("world hash diverged across (shards × workers) grid: %x vs %x (case %d)",
				hashes[0], h, i)
		}
	}
}

// cascadeRun drives the trigger-cascade crowd (runGoldenCrowd's) on an
// n-shard runtime and returns the final hash plus total trigger
// activations.
func cascadeRun(t *testing.T, shards, workers int, conflict string) (uint64, int) {
	t.Helper()
	run := runGoldenCrowd(t, "cascade", "inprocess", shards, workers, conflict)
	return run.final, run.fired
}

func TestTriggerCascadeHashInvariantAcrossGrid(t *testing.T) {
	// The effect-aware trigger drain keeps trigger-cascade-heavy state
	// bit-identical across the whole Shards × Workers grid: cascades
	// batch per round, actions fan across workers, and the per-round
	// apply is keyed by (event seq, rule seq) — never by partitioning.
	baseHash, baseFired := cascadeRun(t, 1, 1, "")
	if baseFired == 0 {
		t.Fatal("scenario fired no triggers")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, shards := range []int{1, 2, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			h, fired := cascadeRun(t, shards, workers, "")
			if h != baseHash {
				t.Fatalf("hash diverged at shards=%d workers=%d: %x vs %x", shards, workers, h, baseHash)
			}
			if fired != baseFired {
				t.Fatalf("activations diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, fired, baseFired)
			}
		}
	}
	// The direct-execution drain is the semantic baseline: on a strictly
	// per-entity cascade it produces the identical world. Its hash and
	// activation count are the recorded ones (golden_test.go).
	if baseHash != cascadeGoldenFinal || baseFired != cascadeGoldenFired {
		t.Fatalf("effect drain diverged from the recorded direct execution: hash %x vs %x, fired %d vs %d",
			baseHash, uint64(cascadeGoldenFinal), baseFired, cascadeGoldenFired)
	}
}

func TestDeterminismSameSeedSameRun(t *testing.T) {
	run := func() uint64 {
		rt := newRuntime(t, 4, Config{Seed: 11, TickDT: 0.5, GhostBand: 25})
		scenario(t, rt, 150, 99)
		for i := 0; i < 40; i++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Hash()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %x vs %x", a, b)
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

// mingleRun drives the apply-heavy mingle crowd (runGoldenCrowd's) on an
// n-shard runtime and returns the final hash plus total applied
// effects.
func mingleRun(t *testing.T, shards, workers int, conflict string) (uint64, int) {
	t.Helper()
	run := runGoldenCrowd(t, "mingle", "inprocess", shards, workers, conflict)
	if run.effects == 0 {
		t.Fatalf("shards=%d workers=%d: scenario applied no effects", shards, workers)
	}
	return run.final, run.effects
}

// TestBatchedApplyHashInvariantAcrossGrid pins the columnar apply to
// the row-at-a-time apply bit-for-bit across the whole Shards × Workers
// grid, on both tick-pipeline workloads: the apply-heavy mingle crowd
// (set + add floods over four columns plus physics deltas) and the
// trigger cascade (per-round applies inside the trigger drain). The row
// apply's hashes and counts are the recorded ones (golden_test.go);
// world's TestBatchedApplyMatchesRowApply still runs it live. Grouping
// by (table, column) must never show in the world state — only in the
// profile.
func TestBatchedApplyHashInvariantAcrossGrid(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, shards := range []int{1, 2, 4} {
			bh, be := mingleRun(t, shards, workers, "")
			if rh, _ := mingleGolden(shards); bh != rh {
				t.Fatalf("mingle: batched hash diverged from row apply at shards=%d workers=%d: %x vs %x",
					shards, workers, bh, rh)
			}
			if be != mingleGoldenEffects {
				t.Fatalf("mingle: effect counts diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, be, mingleGoldenEffects)
			}

			ch, cf := cascadeRun(t, shards, workers, "")
			if ch != cascadeGoldenFinal {
				t.Fatalf("cascade: batched hash diverged from row apply at shards=%d workers=%d: %x vs %x",
					shards, workers, ch, uint64(cascadeGoldenFinal))
			}
			if cf != cascadeGoldenFired {
				t.Fatalf("cascade: activations diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, cf, cascadeGoldenFired)
			}
		}
	}
}

// TestOCCConflictPolicyHashInvariantAcrossGrid pins ConflictPolicy=occ
// across the whole Workers × Shards grid on both tick-pipeline
// workloads. Both scenarios write strictly per-entity, so occ must land
// on the exact lastwrite hash (PR 4's baseline): the validate pass is
// pure observation until a conflicting assignment actually appears, and
// the re-run machinery is a function of the deterministic merge alone.
// The cascade scenario is additionally shard-count invariant, so its
// occ hashes are pinned grid-wide to one base; the mingle crowd reads
// neighbors (whose cross-boundary view is the weakened Coarse ghost
// mirror, a pre-existing property of the scenario, not of the policy),
// so its occ hash is pinned to the lastwrite hash at the same grid
// point instead.
func TestOCCConflictPolicyHashInvariantAcrossGrid(t *testing.T) {
	cascadeBase, cascadeFired := cascadeRun(t, 1, 1, "")
	for _, workers := range []int{1, 2, 4, 8} {
		for _, shards := range []int{1, 2, 4} {
			lh, le := mingleRun(t, shards, workers, "")
			mh, me := mingleRun(t, shards, workers, world.ConflictOCC)
			if mh != lh {
				t.Fatalf("mingle: occ hash diverged from lastwrite at shards=%d workers=%d: %x vs %x",
					shards, workers, mh, lh)
			}
			if me != le {
				t.Fatalf("mingle: occ effect counts diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, me, le)
			}
			ch, cf := cascadeRun(t, shards, workers, world.ConflictOCC)
			if ch != cascadeBase {
				t.Fatalf("cascade: occ hash diverged from lastwrite baseline at shards=%d workers=%d: %x vs %x",
					shards, workers, ch, cascadeBase)
			}
			if cf != cascadeFired {
				t.Fatalf("cascade: occ activations diverged at shards=%d workers=%d: %d vs %d",
					shards, workers, cf, cascadeFired)
			}
		}
	}
}
