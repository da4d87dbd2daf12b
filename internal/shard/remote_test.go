package shard

import (
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// borderRun drives the E22 border-write scenario on an n-shard runtime
// and returns the final hash plus the runtime's forwarding totals.
func borderRun(t *testing.T, shards, workers int, conflict string) (uint64, int64, int64) {
	t.Helper()
	rt, err := New(Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 20, Workers: workers,
		GhostFields: BorderGhostFields(), ConflictPolicy: conflict,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := SeedBorderCrowd(rt, 240, 400, 77, 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if st, err := rt.Step(); err != nil {
			t.Fatalf("shards=%d workers=%d tick %d: %v", shards, workers, st.Tick, err)
		}
	}
	return rt.Hash(), rt.ForwardTotal.Load(), rt.RemoteMergeTotal.Load()
}

// TestCrossShardWritesHashInvariantAcrossGrid pins the effect-forwarding
// exchange across the whole Shards × Workers grid, under both conflict
// policies: the border-write crowd (raiders and medics writing *each
// other* across region boundaries every tick) must land on the exact
// single-shard hash for 1/2/4/8 shards. Before PR 8 a write targeting a
// ghost mirror silently mutated derived state and this scenario diverged
// at every shard count; with ghost writes forwarded to their owner and
// merged deterministically at the barrier, partitioning is invisible.
func TestCrossShardWritesHashInvariantAcrossGrid(t *testing.T) {
	for _, conflict := range []string{"", world.ConflictOCC} {
		base, _, _ := borderRun(t, 1, 1, conflict)
		for _, workers := range []int{1, 2, 4, 8} {
			for _, shards := range []int{1, 2, 4, 8} {
				if shards == 1 && workers == 1 {
					continue
				}
				h, fwd, merged := borderRun(t, shards, workers, conflict)
				if h != base {
					t.Fatalf("conflict=%q: hash diverged at shards=%d workers=%d: %x vs %x",
						conflict, shards, workers, h, base)
				}
				if shards > 1 && fwd == 0 {
					t.Fatalf("conflict=%q shards=%d: no effects forwarded — scenario not writing across borders", conflict, shards)
				}
				if merged != fwd {
					t.Fatalf("conflict=%q shards=%d workers=%d: forwarded %d records but merged %d",
						conflict, shards, workers, fwd, merged)
				}
			}
		}
	}
}

// raceWorld seeds the cross-shard two-writers-one-reader race on a
// 2-shard runtime (boundary at x = 200): a store owned by shard 1, a
// local writer beside it, a foreign writer and a reader across the
// boundary reading the store through its Exact ghost mirror. All scripts
// fire on tick 1 only, so the race is a single, fully-controlled round.
const raceLocalBump = 100

const racePackXML = `
<contentpack name="border-race">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="kind" kind="int"/>
    <column name="v" kind="int"/>
    <column name="seen" kind="int" default="-1"/>
  </schema>
  <archetype name="store" table="units">
    <set column="kind" value="1"/>
  </archetype>
  <archetype name="far-bumper" table="units" script="bump_far"/>
  <archetype name="near-bumper" table="units" script="bump_near"/>
  <archetype name="watcher" table="units" script="watch"/>
  <script name="bump_far">
fn on_tick(self) {
  if tick() != 1 { return; }
  for id in nearby(self, 20.0) {
    if get(id, "kind") == 1 { set(id, "v", get(id, "v") + 10); }
  }
}
  </script>
  <script name="bump_near">
fn on_tick(self) {
  if tick() != 1 { return; }
  for id in nearby(self, 20.0) {
    if get(id, "kind") == 1 { set(id, "v", get(id, "v") + 100); }
  }
}
  </script>
  <script name="watch">
fn on_tick(self) {
  if tick() != 1 { return; }
  for id in nearby(self, 20.0) {
    if get(id, "kind") == 1 { set(self, "seen", get(id, "v")); }
  }
}
  </script>
</contentpack>`

func raceWorld(t *testing.T, conflict string) (*Runtime, entity.ID, entity.ID) {
	t.Helper()
	rt, err := New(Config{
		Seed: 7, Shards: 2, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 1, GhostBand: 30, ConflictPolicy: conflict,
		GhostFields: []replica.FieldSpec{
			{Name: "x", Class: replica.Exact},
			{Name: "y", Class: replica.Exact},
			{Name: "kind", Class: replica.Exact},
			{Name: "v", Class: replica.Exact},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c, errs := content.LoadAndCompile(strings.NewReader(racePackXML))
	if len(errs) > 0 {
		t.Fatalf("race pack rejected: %v", errs[0])
	}
	if err := rt.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	spawn := func(arch string, x float64) entity.ID {
		id, err := rt.Spawn(arch, spatial.Vec2{X: x, Y: 100})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	store := spawn("store", 205)    // shard 1, within band of shard 0
	spawn("near-bumper", 210)       // shard 1: local read-modify-write, +100
	spawn("far-bumper", 195)        // shard 0: rmw against the ghost, +10
	reader := spawn("watcher", 190) // shard 0: ghost-read-only
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if rt.Owner(store) != 1 || !rt.ShardWorld(0).IsGhost(store) {
		t.Fatalf("setup: store owner=%d, mirrored on 0: %v", rt.Owner(store), rt.ShardWorld(0).IsGhost(store))
	}
	return rt, store, reader
}

// TestCrossShardOCCSerializable is the two-writers-one-reader race: on
// tick 1 a local writer bumps the store's v by 100 while a foreign
// writer, reading v through the ghost mirror, bumps it by 10, and a
// foreign reader observes v. Under lastwrite the forwarded record lands
// last and the local bump is silently lost (v = 10 — no serial order of
// {reader, +100, +10} produces that). Under occ the forwarded
// invocation's ghost read-set rides along, the owner's validation
// catches the overlap with the tick's committed local write, and the
// re-run is requested back to the originating shard: it re-reads the
// re-shipped v = 100 and its second forwarding merges one barrier later
// — v = 110, the serial order (reader, local +100, foreign +10), with
// the reader's v = 0 observation slotting first.
func TestCrossShardOCCSerializable(t *testing.T) {
	get := func(rt *Runtime, id entity.ID, col string) int64 {
		t.Helper()
		v, err := rt.ShardWorld(rt.Owner(id)).Get(id, col)
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}

	// Lastwrite baseline: the lost update.
	rt, store, reader := raceWorld(t, "")
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if v := get(rt, store, "v"); v != 10 {
		t.Fatalf("lastwrite: store v = %d, want 10 (the foreign write clobbering the local +100)", v)
	}
	if rt.RemoteInvalidationTotal.Load() != 0 {
		t.Fatal("lastwrite: validation ran without occ")
	}

	// OCC: the owner invalidates the foreign rmw and the re-run lands on
	// the serial outcome.
	rt, store, reader = raceWorld(t, world.ConflictOCC)
	var remoteInval int
	for i := 0; i < 3; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		remoteInval += st.RemoteInvalidations
	}
	if v := get(rt, store, "v"); v != raceLocalBump+10 {
		t.Fatalf("occ: store v = %d, want %d (serial: local +100, then foreign +10 re-run)", v, raceLocalBump+10)
	}
	if remoteInval != 1 {
		t.Fatalf("occ: RemoteInvalidations = %d, want exactly 1", remoteInval)
	}
	if rt.RemoteInvalidationTotal.Load() != 1 {
		t.Fatalf("occ: RemoteInvalidationTotal = %d, want 1", rt.RemoteInvalidationTotal.Load())
	}
	if seen := get(rt, reader, "seen"); seen != 0 {
		t.Fatalf("occ: reader saw v = %d, want 0 (reads slot first in the serial order)", seen)
	}
}
