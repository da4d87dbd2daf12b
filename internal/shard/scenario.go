package shard

import (
	"fmt"
	"math/rand"
	"strings"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// DriftingCrowdSchema returns the schema the drifting-crowd demo
// scenario simulates: indexed position, velocity integrated by world
// physics, and an int hp column so kind-preservation paths stay
// exercised.
func DriftingCrowdSchema() (*entity.Schema, error) {
	return entity.NewSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
		entity.Column{Name: "vx", Kind: entity.KindFloat},
		entity.Column{Name: "vy", Kind: entity.KindFloat},
		entity.Column{Name: "hp", Kind: entity.KindInt, Default: entity.Int(100)},
	)
}

// ForEachCrowdSpawn draws the seed-fixed drifting-crowd spawn stream —
// positions in [0,side)², velocities in [-speed, speed), four rng draws
// per entity — and hands each row's values to fn. It is the single
// source of the stream: SeedDriftingCrowd and the single-world baseline
// in bench_test.go both route through it, so "sharded vs baseline"
// always compares the identical workload.
func ForEachCrowdSpawn(units int, side float64, seed int64, speed float64, fn func(vals map[string]entity.Value) error) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < units; i++ {
		if err := fn(map[string]entity.Value{
			"x":  entity.Float(rng.Float64() * side),
			"y":  entity.Float(rng.Float64() * side),
			"vx": entity.Float((rng.Float64()*2 - 1) * speed),
			"vy": entity.Float((rng.Float64()*2 - 1) * speed),
		}); err != nil {
			return err
		}
	}
	return nil
}

// CascadePackXML is the trigger-cascade-heavy content pack behind the
// grid-invariance tests and bench/'s cascade workload: every entity's
// behavior emits a self-targeted "pulse" each tick, a chained trigger
// re-emits it with a decremented amount (three cascade rounds of
// matched actions per tick), and a final trigger fires on amount 0 —
// so one tick exercises multi-round cascades, conditions, adds and
// sets, all strictly per-entity. Strictly per-entity matters: trigger
// state then depends only on (seed, entity), never on which shard or
// worker ran it, which is what lets the same seed hash identically for
// any Shards × Workers combination.
const CascadePackXML = `
<contentpack name="cascade-crowd">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="boom" kind="int"/>
    <column name="flag" kind="int"/>
  </schema>
  <archetype name="pulser" table="units" script="pulse"/>
  <script name="pulse">
fn on_tick(self) { emit("pulse", self, 3); }
  </script>
  <trigger name="chain" event="pulse" priority="5">
    <when>amount &gt; 0</when>
    <do>add(self, "boom", 1); emit("pulse", self, amount - 1);</do>
  </trigger>
  <trigger name="flag-final" event="pulse">
    <when>amount == 0</when>
    <do>set(self, "flag", get(self, "flag") + 1);</do>
  </trigger>
</contentpack>`

// SeedCascadeCrowd loads CascadePackXML into every shard and spawns
// `units` drifting pulser entities from a seed-fixed stream (four rng
// draws per entity: position in [0,side)², velocity in [-speed,speed)),
// then syncs initial ghosts. Spawns go through the coordinator, so ids,
// positions and velocities are identical for every shard count.
func SeedCascadeCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(CascadePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: cascade pack rejected: %v", errs[0])
	}
	if err := rt.LoadPack(c); err != nil {
		return err
	}
	return spawnCascadeCrowd(rt, units, side, seed, speed)
}

// spawnCascadeCrowd is SeedCascadeCrowd's spawn stream and initial
// sync, for a runtime whose cascade pack is already loaded.
func spawnCascadeCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < units; i++ {
		pos := spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		vx := (rng.Float64()*2 - 1) * speed
		vy := (rng.Float64()*2 - 1) * speed
		id, err := rt.Spawn("pulser", pos)
		if err != nil {
			return err
		}
		w := rt.ShardWorld(rt.Partitioner().Locate(pos))
		if err := w.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		if err := w.Set(id, "vy", entity.Float(vy)); err != nil {
			return err
		}
	}
	return rt.Sync()
}

// MinglePackXML is the apply-heavy behavior scenario (the E14 workload
// shape): every entity scans its neighborhood, moves toward the local
// centroid (two position sets per tick via move_toward) and counts
// encounters (an int add), while velocity physics contributes additive
// x/y deltas. One tick therefore floods the apply phase with set and
// add effects across four columns — the workload the columnar apply
// path is measured on (bench/'s mingle).
const MinglePackXML = `
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

// ForEachMingleSpawn draws the seed-fixed mingle spawn stream (four
// rng draws per entity: position in [0,side)², velocity in
// [-speed,speed)) and hands each unit to fn — the single stream source
// shared by the in-process and wire-cluster seeders.
func ForEachMingleSpawn(units int, side float64, seed int64, speed float64, fn func(pos spatial.Vec2, vx, vy float64) error) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < units; i++ {
		pos := spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		vx := (rng.Float64()*2 - 1) * speed
		vy := (rng.Float64()*2 - 1) * speed
		if err := fn(pos, vx, vy); err != nil {
			return err
		}
	}
	return nil
}

// SeedMingleCrowd loads MinglePackXML into every shard and spawns
// `units` drifting minglers from a seed-fixed stream (four rng draws
// per entity: position in [0,side)², velocity in [-speed,speed)), then
// syncs initial ghosts. Spawns go through the coordinator, so ids,
// positions and velocities are identical for every shard count.
func SeedMingleCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(MinglePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: mingle pack rejected: %v", errs[0])
	}
	if err := rt.LoadPack(c); err != nil {
		return err
	}
	err := ForEachMingleSpawn(units, side, seed, speed, func(pos spatial.Vec2, vx, vy float64) error {
		id, err := rt.Spawn("unit", pos)
		if err != nil {
			return err
		}
		w := rt.ShardWorld(rt.Partitioner().Locate(pos))
		if err := w.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return w.Set(id, "vy", entity.Float(vy))
	})
	if err != nil {
		return err
	}
	return rt.Sync()
}

// SeedMingleCluster seeds the identical mingle workload onto a wire
// cluster: the same pack, the same spawn stream, every peer replaying
// the coordinator calls — so a Cluster run hash-matches a Runtime run
// of the same config tick for tick.
func SeedMingleCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(MinglePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: mingle pack rejected: %v", errs[0])
	}
	if err := cl.LoadPack(c); err != nil {
		return err
	}
	err := ForEachMingleSpawn(units, side, seed, speed, func(pos spatial.Vec2, vx, vy float64) error {
		id, err := cl.Spawn("unit", pos)
		if err != nil {
			return err
		}
		if err := cl.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return cl.Set(id, "vy", entity.Float(vy))
	})
	if err != nil {
		return err
	}
	return cl.Sync()
}

// ConflictPackXML is the write-write-contention scenario behind
// BenchmarkE17ConflictPolicy and the E17 experiment: drifting claimer
// units race to stamp shared beacon rows. Every claimer scans its
// neighborhood and, for each beacon it finds, assigns the beacon's
// `claim` column to its own id (a blind write-write race) and bumps the
// beacon's `heat` via set(get+1) — a read-modify-write whose losers
// computed from stale state. Under ConflictLastWrite each contended
// beacon gains one heat per tick no matter how many claimers raced (the
// classic lost update); under ConflictOCC the losers re-run round by
// round and heat counts every claimer, matching serial execution — at
// the cost of EffectRetries (and EffectAborts once contention outruns
// the retry cap). The rmw is deliberately set(get+1) rather than `add`:
// adds commute and would never conflict.
const ConflictPackXML = `
<contentpack name="conflict-crowd">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="kind" kind="int"/>
    <column name="claim" kind="int"/>
    <column name="heat" kind="int"/>
  </schema>
  <archetype name="beacon" table="units">
    <set column="kind" value="1"/>
  </archetype>
  <archetype name="claimer" table="units" script="claim"/>
  <script name="claim">
fn on_tick(self) {
  let ns = nearby(self, 12.0);
  for id in ns {
    if get(id, "kind") == 1 {
      set(id, "claim", self);
      set(id, "heat", get(id, "heat") + 1);
    }
  }
}
  </script>
</contentpack>`

// SeedConflictWorld loads ConflictPackXML into a single world and
// spawns `beacons` static beacons on a uniform grid across the
// side×side map plus `claimers` drifting claimers from a seed-fixed
// stream (four rng draws per claimer: position in [0,side)², velocity
// in [-speed,speed) with speed fixed at 30). Conflict resolution is
// shard-local, so the contention scenario runs single-world —
// BenchmarkE17ConflictPolicy and the E17 experiment both seed through
// here.
func SeedConflictWorld(w *world.World, claimers, beacons int, side float64, seed int64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(ConflictPackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: conflict pack rejected: %v", errs[0])
	}
	if err := w.LoadPack(c); err != nil {
		return err
	}
	cols := 1
	for cols*cols < beacons {
		cols++
	}
	for i := 0; i < beacons; i++ {
		pos := spatial.Vec2{
			X: (float64(i%cols) + 0.5) * side / float64(cols),
			Y: (float64(i/cols) + 0.5) * side / float64(cols),
		}
		if _, err := w.Spawn("beacon", pos); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const speed = 30.0
	for i := 0; i < claimers; i++ {
		pos := spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		vx := (rng.Float64()*2 - 1) * speed
		vy := (rng.Float64()*2 - 1) * speed
		id, err := w.Spawn("claimer", pos)
		if err != nil {
			return err
		}
		if err := w.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		if err := w.Set(id, "vy", entity.Float(vy)); err != nil {
			return err
		}
	}
	return nil
}

// BorderWritePackXML is the adversarial cross-shard-write scenario (the
// E22 workload): two unit kinds drift in tight clusters along region
// boundaries and write *each other* every tick. Raiders stamp every
// nearby medic with a claim (an idempotent constant set) and a knockback
// (a commutative add); medics heal every nearby raider (another add).
// Near a boundary the written neighbor is a ghost mirror, so every tick
// floods the barrier's effect-forwarding exchange with RemoteEffectBatch
// traffic in both directions. Writes are deliberately commutative or
// idempotent and no behavior reads a written column, so the scenario is
// exactly shard-count-invariant under both conflict policies — provided
// the *read* fields (x, y, kind) mirror Exactly and the ghost band
// covers the 9.0 interaction radius (BorderGhostFields).
const BorderWritePackXML = `
<contentpack name="border-writes">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="kind" kind="int"/>
    <column name="claimed" kind="int"/>
    <column name="kb" kind="int"/>
    <column name="hp" kind="int" default="100"/>
  </schema>
  <archetype name="raider" table="units" script="raid">
    <set column="kind" value="1"/>
  </archetype>
  <archetype name="medic" table="units" script="mend">
    <set column="kind" value="2"/>
  </archetype>
  <script name="raid">
fn on_tick(self) {
  let ns = nearby(self, 9.0);
  for id in ns {
    if get(id, "kind") == 2 {
      set(id, "claimed", 1);
      add(id, "kb", 1);
    }
  }
}
  </script>
  <script name="mend">
fn on_tick(self) {
  let ns = nearby(self, 9.0);
  for id in ns {
    if get(id, "kind") == 1 {
      add(id, "hp", 2);
    }
  }
}
  </script>
</contentpack>`

// BorderGhostFields is the replication spec BorderWritePackXML needs for
// shard-count-invariant hashes: every field a behavior *reads* through a
// ghost mirror ships Exact. Written-only columns (claimed, kb, hp) need
// no spec — their cross-shard writes forward to the owner instead of
// relying on the mirror.
func BorderGhostFields() []replica.FieldSpec {
	return []replica.FieldSpec{
		{Name: "x", Class: replica.Exact},
		{Name: "y", Class: replica.Exact},
		{Name: "kind", Class: replica.Exact},
	}
}

// MingleGhostFields is the replication spec the mingle scenario needs
// for shard-count-invariant hashes when raced across shard counts: the
// behavior reads neighbors' x/y through mirrors, so both must ship
// Exact (Coarse mirrors would let the centroid math see stale
// positions on some shard counts and not others).
func MingleGhostFields() []replica.FieldSpec {
	return []replica.FieldSpec{
		{Name: "x", Class: replica.Exact},
		{Name: "y", Class: replica.Exact},
	}
}

// ForEachBorderSpawn draws the seed-fixed border-crowd spawn stream and
// hands each row to fn. Spawns alternate raider/medic and cluster within
// ±6 of the side/2 gridlines — half along the vertical line x = side/2,
// half along the horizontal line y = side/2 — so for every shard count
// whose partition cuts those lines (2, 4, 8 over a square map) a dense
// mixed crowd straddles the borders. Four rng draws per entity keep the
// stream identical for every shard count.
func ForEachBorderSpawn(units int, side float64, seed int64, speed float64, fn func(arch string, pos spatial.Vec2, vx, vy float64) error) error {
	rng := rand.New(rand.NewSource(seed))
	const jitter = 6.0
	for i := 0; i < units; i++ {
		arch := "raider"
		if i%2 == 1 {
			arch = "medic"
		}
		var pos spatial.Vec2
		if (i/2)%2 == 0 {
			pos = spatial.Vec2{X: side/2 + (rng.Float64()*2-1)*jitter, Y: rng.Float64() * side}
		} else {
			pos = spatial.Vec2{X: rng.Float64() * side, Y: side/2 + (rng.Float64()*2-1)*jitter}
		}
		vx := (rng.Float64()*2 - 1) * speed
		vy := (rng.Float64()*2 - 1) * speed
		if err := fn(arch, pos, vx, vy); err != nil {
			return err
		}
	}
	return nil
}

// SeedBorderCrowd loads BorderWritePackXML into every shard and spawns
// the ForEachBorderSpawn stream through the coordinator, then syncs
// initial ghosts (and their owner routes). Pair with
// GhostFields: BorderGhostFields() and a GhostBand covering the 9.0
// interaction radius for exact cross-shard semantics.
func SeedBorderCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(BorderWritePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: border pack rejected: %v", errs[0])
	}
	if err := rt.LoadPack(c); err != nil {
		return err
	}
	return seedBorderSpawns(units, side, seed, speed,
		func(arch string, pos spatial.Vec2) (entity.ID, *world.World, error) {
			id, err := rt.Spawn(arch, pos)
			if err != nil {
				return 0, nil, err
			}
			return id, rt.ShardWorld(rt.Partitioner().Locate(pos)), nil
		}, rt.Sync)
}

// SeedBorderCluster seeds the border-writes workload onto a wire
// cluster from the identical ForEachBorderSpawn stream — the
// adversarial cross-shard-write scenario the wire barrier must carry
// without diverging from the in-process exchange.
func SeedBorderCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(BorderWritePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: border pack rejected: %v", errs[0])
	}
	if err := cl.LoadPack(c); err != nil {
		return err
	}
	err := ForEachBorderSpawn(units, side, seed, speed, func(arch string, pos spatial.Vec2, vx, vy float64) error {
		id, err := cl.Spawn(arch, pos)
		if err != nil {
			return err
		}
		if err := cl.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return cl.Set(id, "vy", entity.Float(vy))
	})
	if err != nil {
		return err
	}
	return cl.Sync()
}

// SeedMinglePeer seeds one wire peer of a multi-process mingle grid:
// the peer replays the full coordinator stream (LoadPack content
// spawns included) and materializes only its own rows; the trailing
// Sync is lockstep, so every peer process must call this concurrently.
func SeedMinglePeer(p *Peer, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(MinglePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: mingle pack rejected: %v", errs[0])
	}
	if err := p.LoadPack(c); err != nil {
		return err
	}
	err := ForEachMingleSpawn(units, side, seed, speed, func(pos spatial.Vec2, vx, vy float64) error {
		id, err := p.Spawn("unit", pos)
		if err != nil {
			return err
		}
		if err := p.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return p.Set(id, "vy", entity.Float(vy))
	})
	if err != nil {
		return err
	}
	return p.Sync()
}

// SeedBorderPeer is SeedMinglePeer's border-writes twin.
func SeedBorderPeer(p *Peer, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(BorderWritePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: border pack rejected: %v", errs[0])
	}
	if err := p.LoadPack(c); err != nil {
		return err
	}
	err := ForEachBorderSpawn(units, side, seed, speed, func(arch string, pos spatial.Vec2, vx, vy float64) error {
		id, err := p.Spawn(arch, pos)
		if err != nil {
			return err
		}
		if err := p.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return p.Set(id, "vy", entity.Float(vy))
	})
	if err != nil {
		return err
	}
	return p.Sync()
}

// SeedDriftingPeer is the drifting-crowd peer seeder.
func SeedDriftingPeer(p *Peer, units int, side float64, seed int64, speed float64) error {
	s, err := DriftingCrowdSchema()
	if err != nil {
		return err
	}
	if _, err := p.World().CreateTable("units", s); err != nil {
		return err
	}
	if err := ForEachCrowdSpawn(units, side, seed, speed, func(vals map[string]entity.Value) error {
		_, err := p.SpawnRaw("units", vals)
		return err
	}); err != nil {
		return err
	}
	return p.Sync()
}

// SeedBorderWorld is the single-world twin of SeedBorderCrowd: the same
// pack, the same spawn stream, one world.World — the baseline every
// sharded border run must hash-match, and the worldsim border scenario.
func SeedBorderWorld(w *world.World, units int, side float64, seed int64, speed float64) error {
	c, errs := content.LoadAndCompile(strings.NewReader(BorderWritePackXML))
	if len(errs) > 0 {
		return fmt.Errorf("shard: border pack rejected: %v", errs[0])
	}
	if err := w.LoadPack(c); err != nil {
		return err
	}
	return seedBorderSpawns(units, side, seed, speed,
		func(arch string, pos spatial.Vec2) (entity.ID, *world.World, error) {
			id, err := w.Spawn(arch, pos)
			return id, w, err
		}, func() error { return nil })
}

// seedBorderSpawns routes the ForEachBorderSpawn stream through a spawn
// hook shared by the sharded and single-world seeders, so both always
// simulate the identical workload.
func seedBorderSpawns(units int, side float64, seed int64, speed float64,
	spawn func(arch string, pos spatial.Vec2) (entity.ID, *world.World, error), sync func() error) error {
	err := ForEachBorderSpawn(units, side, seed, speed, func(arch string, pos spatial.Vec2, vx, vy float64) error {
		id, w, err := spawn(arch, pos)
		if err != nil {
			return err
		}
		if err := w.Set(id, "vx", entity.Float(vx)); err != nil {
			return err
		}
		return w.Set(id, "vy", entity.Float(vy))
	})
	if err != nil {
		return err
	}
	return sync()
}

// SeedDriftingCrowd creates the "units" table on every shard and spawns
// `units` entities from the ForEachCrowdSpawn stream, then syncs
// initial ghosts. The stream depends only on the seed, never the shard
// count, so every shard count simulates the identical world —
// cmd/shardsim, the E13 benchmarks and examples/mmo-shard all race
// this one scenario.
// SeedDriftingCluster seeds the drifting-crowd workload onto a wire
// cluster from the identical ForEachCrowdSpawn stream: the schema is
// created on every peer world, raw spawns replay through the
// replicated coordinator, and the final Sync materializes ghosts.
func SeedDriftingCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	s, err := DriftingCrowdSchema()
	if err != nil {
		return err
	}
	for i := 0; i < cl.Shards(); i++ {
		if _, err := cl.ShardWorld(i).CreateTable("units", s); err != nil {
			return err
		}
	}
	if err := ForEachCrowdSpawn(units, side, seed, speed, func(vals map[string]entity.Value) error {
		_, err := cl.SpawnRaw("units", vals)
		return err
	}); err != nil {
		return err
	}
	return cl.Sync()
}

func SeedDriftingCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	s, err := DriftingCrowdSchema()
	if err != nil {
		return err
	}
	for i := 0; i < rt.Shards(); i++ {
		if _, err := rt.ShardWorld(i).CreateTable("units", s); err != nil {
			return err
		}
	}
	if err := ForEachCrowdSpawn(units, side, seed, speed, func(vals map[string]entity.Value) error {
		_, err := rt.SpawnRaw("units", vals)
		return err
	}); err != nil {
		return err
	}
	return rt.Sync()
}
