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
	g := worldSeeder{w}
	if err := loadPack(g, "conflict", ConflictPackXML); err != nil {
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
	return spawnMovers(g, "claimer", claimers, side, seed, 30)
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

// seeder is what a crowd seeder drives: every peer of an in-process
// Cluster at once, one Peer of a multi-process grid replaying the same
// calls, or a single world. Spawns go through the replicated
// coordinator stream, so ids, positions and velocities are identical for
// every shard count, and the trailing Sync materializes the initial
// ghosts (in lockstep: every peer of a grid calls it together).
type seeder interface {
	LoadPack(c *content.Compiled) error
	CreateTable(name string, s *entity.Schema) error
	Spawn(archetype string, pos spatial.Vec2) (entity.ID, error)
	SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error)
	Set(id entity.ID, col string, v entity.Value) error
	Sync() error
}

// loadPack compiles one of the package's content packs into g.
func loadPack(g seeder, name, xml string) error {
	c, errs := content.LoadAndCompile(strings.NewReader(xml))
	if len(errs) > 0 {
		return fmt.Errorf("shard: %s pack rejected: %v", name, errs[0])
	}
	return g.LoadPack(c)
}

// spawnMovers spawns `units` archetype entities from a seed-fixed
// stream — four rng draws per entity: position in [0,side)², velocity
// in [-speed,speed) — then syncs.
func spawnMovers(g seeder, archetype string, units int, side float64, seed int64, speed float64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < units; i++ {
		pos := spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		vx := (rng.Float64()*2 - 1) * speed
		vy := (rng.Float64()*2 - 1) * speed
		if err := spawnMoving(g, archetype, pos, vx, vy); err != nil {
			return err
		}
	}
	return g.Sync()
}

// spawnMoving spawns one archetype entity at pos with velocity (vx, vy).
func spawnMoving(g seeder, archetype string, pos spatial.Vec2, vx, vy float64) error {
	id, err := g.Spawn(archetype, pos)
	if err != nil {
		return err
	}
	if err := g.Set(id, "vx", entity.Float(vx)); err != nil {
		return err
	}
	return g.Set(id, "vy", entity.Float(vy))
}

// seedCascade loads CascadePackXML and spawns `units` drifting pulsers.
func seedCascade(g seeder, units int, side float64, seed int64, speed float64) error {
	if err := loadPack(g, "cascade", CascadePackXML); err != nil {
		return err
	}
	return spawnMovers(g, "pulser", units, side, seed, speed)
}

// seedMingle loads MinglePackXML and spawns `units` drifting minglers.
func seedMingle(g seeder, units int, side float64, seed int64, speed float64) error {
	if err := loadPack(g, "mingle", MinglePackXML); err != nil {
		return err
	}
	return spawnMovers(g, "unit", units, side, seed, speed)
}

// seedBorder loads BorderWritePackXML and spawns `units` entities from a
// seed-fixed stream. Spawns alternate raider/medic and cluster within ±6
// of the side/2 gridlines — half along the vertical line x = side/2,
// half along the horizontal line y = side/2 — so for every shard count
// whose partition cuts those lines (2, 4, 8 over a square map) a dense
// mixed crowd straddles the borders. Four rng draws per entity keep the
// stream identical for every shard count. Pair with GhostFields:
// BorderGhostFields() and a GhostBand covering the 9.0 interaction
// radius for exact cross-shard semantics.
func seedBorder(g seeder, units int, side float64, seed int64, speed float64) error {
	if err := loadPack(g, "border", BorderWritePackXML); err != nil {
		return err
	}
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
		if err := spawnMoving(g, arch, pos, vx, vy); err != nil {
			return err
		}
	}
	return g.Sync()
}

// seedDrifting creates the "units" table and spawns `units` entities
// from the ForEachCrowdSpawn stream. The stream depends only on the
// seed, never the shard count, so every shard count simulates the
// identical world.
func seedDrifting(g seeder, units int, side float64, seed int64, speed float64) error {
	s, err := DriftingCrowdSchema()
	if err != nil {
		return err
	}
	if err := g.CreateTable("units", s); err != nil {
		return err
	}
	if err := ForEachCrowdSpawn(units, side, seed, speed, func(vals map[string]entity.Value) error {
		_, err := g.SpawnRaw("units", vals)
		return err
	}); err != nil {
		return err
	}
	return g.Sync()
}

// worldSeeder lets a seeder drive one plain world: the single-world
// baseline every sharded run of the same crowd must hash-match.
type worldSeeder struct{ *world.World }

func (w worldSeeder) CreateTable(name string, s *entity.Schema) error {
	_, err := w.World.CreateTable(name, s)
	return err
}

func (worldSeeder) Sync() error { return nil }

// The seeders' entry points, one per crowd and caller.

// SeedCascadeCrowd seeds the trigger-cascade crowd into rt.
func SeedCascadeCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return seedCascade(rt, units, side, seed, speed)
}

// SeedMingleCrowd seeds the mingle crowd into rt.
func SeedMingleCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return seedMingle(rt, units, side, seed, speed)
}

// SeedMingleCluster seeds the mingle crowd into cl.
func SeedMingleCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	return seedMingle(cl, units, side, seed, speed)
}

// SeedMinglePeer seeds the mingle crowd into one peer of a grid.
func SeedMinglePeer(p *Peer, units int, side float64, seed int64, speed float64) error {
	return seedMingle(p, units, side, seed, speed)
}

// SeedBorderCrowd seeds the border-writes crowd into rt.
func SeedBorderCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return seedBorder(rt, units, side, seed, speed)
}

// SeedBorderCluster seeds the border-writes crowd into cl.
func SeedBorderCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	return seedBorder(cl, units, side, seed, speed)
}

// SeedBorderPeer seeds the border-writes crowd into one peer of a grid.
func SeedBorderPeer(p *Peer, units int, side float64, seed int64, speed float64) error {
	return seedBorder(p, units, side, seed, speed)
}

// SeedBorderWorld seeds the border-writes crowd into a single world.
func SeedBorderWorld(w *world.World, units int, side float64, seed int64, speed float64) error {
	return seedBorder(worldSeeder{w}, units, side, seed, speed)
}

// SeedDriftingCrowd seeds the drifting crowd into rt.
func SeedDriftingCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return seedDrifting(rt, units, side, seed, speed)
}

// SeedDriftingCluster seeds the drifting crowd into cl.
func SeedDriftingCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	return seedDrifting(cl, units, side, seed, speed)
}

// SeedDriftingPeer seeds the drifting crowd into one peer of a grid.
func SeedDriftingPeer(p *Peer, units int, side float64, seed int64, speed float64) error {
	return seedDrifting(p, units, side, seed, speed)
}
