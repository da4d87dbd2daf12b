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

// Scenario is one crowd, declared once: the CLIs' -scenario, the grid
// tests, the experiments and bench/'s seeders all seed it through Seed.
type Scenario struct {
	Name  string
	Speed float64 // drift speed when a Crowd leaves Speed at 0
	// GhostFields are the columns the crowd's behaviors read through ghost
	// mirrors, shipped Exact so its hash is the same at every shard count;
	// Reach is the interaction radius the ghost band must cover. Nil keeps
	// the default Coarse mirrors, exact only if nothing reads a neighbour.
	GhostFields []replica.FieldSpec
	Reach       float64
	// HubFields are the client fields a replica hub serves (nil: none).
	HubFields []replica.FieldSpec
	// OneWorld marks a crowd that is not shard-count-exact: it is measured
	// on one world, reached through MustLookup, and Lookup refuses it.
	OneWorld bool

	seed func(g seeder, c Crowd) error
}

// Crowd sizes one seeding of a scenario: Units entities on a Side×Side
// map from the Seed stream, drifting at up to Speed (0 takes the
// scenario's). Beacons is the conflict crowd's static beacon count,
// required there; the other crowds ignore it.
type Crowd struct {
	Units   int
	Side    float64
	Seed    int64
	Speed   float64
	Beacons int
}

// Seed loads the scenario's pack into g and spawns c, call for call the
// same into a *Cluster, one lockstep *Peer of a grid, or a WorldSeeder.
func (s *Scenario) Seed(g seeder, c Crowd) error {
	if c.Speed == 0 {
		c.Speed = s.Speed
	}
	return s.seed(g, c)
}

// Configure returns cfg with the crowd's ghost fields and, when cfg's
// ghost band is narrower than the crowd's reach, a band of 20. Applying
// it to its own result changes nothing, so a -net worker handed the
// widened band arrives at the same config.
func (s *Scenario) Configure(cfg Config) Config {
	if s.GhostFields != nil {
		cfg.GhostFields = s.GhostFields
		if cfg.GhostBand < s.Reach {
			cfg.GhostBand = 20
		}
	}
	return cfg
}

// Lookup resolves a CLI's -scenario: the registry's shard-count-exact
// entry called name, or an error listing ScenarioNames.
func Lookup(name string) (*Scenario, error) {
	for _, s := range scenarios {
		if s.Name == name && !s.OneWorld {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q (want %s)", name, strings.Join(ScenarioNames(), ", "))
}

// MustLookup returns the registry's entry called name, OneWorld or not,
// for callers that name a known crowd; it panics on any other name.
func MustLookup(name string) *Scenario {
	for _, s := range scenarios {
		if s.Name == name {
			return s
		}
	}
	panic("shard: no scenario " + name)
}

// ScenarioNames lists the names Lookup accepts, in declaration order.
func ScenarioNames() (names []string) {
	for _, s := range scenarios {
		if !s.OneWorld {
			names = append(names, s.Name)
		}
	}
	return names
}

// scenarios is the registry.
var scenarios = []*Scenario{driftScenario, cascadeScenario, mingleScenario, borderScenario, conflictScenario}

// hubFields is a crowd's client view: positions Coarse (epsilon plus a
// staleness deadline) and the crowd's own columns after them.
func hubFields(own ...replica.FieldSpec) []replica.FieldSpec {
	return append([]replica.FieldSpec{
		{Name: "x", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "y", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
	}, own...)
}

// driftScenario is the velocity crowd: no behaviors, every row moves
// every tick, so nothing reads a neighbour and default ghosts are exact.
var driftScenario = &Scenario{Name: "drift", Speed: 40, seed: seedDrifting}

// cascadeScenario is the trigger-cascade crowd (cascadePackXML): strictly
// per-entity, so default ghosts are exact.
var cascadeScenario = &Scenario{Name: "cascade", Speed: 30, seed: seedCascade}

// mingleScenario is the apply-heavy neighbourhood crowd (minglePackXML):
// the behavior reads neighbours' x/y through mirrors (8.0 radius), so
// both must ship Exact — Coarse mirrors would let the centroid math see
// stale positions on some shard counts and not others.
var mingleScenario = &Scenario{
	Name: "mingle", Speed: 30,
	GhostFields: []replica.FieldSpec{
		{Name: "x", Class: replica.Exact},
		{Name: "y", Class: replica.Exact},
	},
	Reach:     8,
	HubFields: hubFields(replica.FieldSpec{Name: "met", Class: replica.Exact}),
	seed:      seedMingle,
}

// borderScenario is the cross-shard-write crowd (borderWritePackXML):
// every field a behavior reads through a mirror (x, y, kind) ships
// Exact and the band covers the 9.0 interaction radius. Written-only
// columns (claimed, kb, hp) need no spec — their cross-shard writes
// forward to the owner instead of relying on the mirror.
var borderScenario = &Scenario{
	Name: "border", Speed: 6,
	GhostFields: []replica.FieldSpec{
		{Name: "x", Class: replica.Exact},
		{Name: "y", Class: replica.Exact},
		{Name: "kind", Class: replica.Exact},
	},
	Reach: 9,
	HubFields: hubFields(
		replica.FieldSpec{Name: "hp", Class: replica.Exact},
		replica.FieldSpec{Name: "kb", Class: replica.Cosmetic, Period: 4},
	),
	seed: seedBorder,
}

// conflictScenario is the write-write-contention crowd (conflictPackXML).
// Its claimers read and rewrite beacons through Coarse mirrors, so it is
// not shard-count-exact: E17 and BenchmarkE17ConflictPolicy measure it on
// one world.
var conflictScenario = &Scenario{Name: "conflict", Speed: 30, OneWorld: true, seed: seedConflict}

// cascadePackXML is the trigger-cascade-heavy content pack behind the
// grid-invariance tests and bench/'s cascade workload: every entity's
// behavior emits a self-targeted "pulse" each tick, a chained trigger
// re-emits it with a decremented amount (three cascade rounds of
// matched actions per tick), and a final trigger fires on amount 0 —
// so one tick exercises multi-round cascades, conditions, adds and
// sets, all strictly per-entity. Strictly per-entity matters: trigger
// state then depends only on (seed, entity), never on which shard or
// worker ran it, which is what lets the same seed hash identically for
// any Shards × Workers combination.
const cascadePackXML = `
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

// minglePackXML is the apply-heavy behavior scenario (the E14 workload
// shape): every entity scans its neighborhood, moves toward the local
// centroid (two position sets per tick via move_toward) and counts
// encounters (an int add), while velocity physics contributes additive
// x/y deltas. One tick therefore floods the apply phase with set and
// add effects across four columns — the workload the columnar apply
// path is measured on (bench/'s mingle).
const minglePackXML = `
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

// conflictPackXML is the write-write-contention scenario behind
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
const conflictPackXML = `
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

// borderWritePackXML is the adversarial cross-shard-write scenario (the
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
// covers the 9.0 interaction radius (borderScenario.Configure).
const borderWritePackXML = `
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

// WorldSeeder lets a Scenario seed one plain world: the single-world
// baseline every sharded run of the same crowd must hash-match.
type WorldSeeder struct{ *world.World }

// CreateTable registers a table on the world.
func (w WorldSeeder) CreateTable(name string, s *entity.Schema) error {
	_, err := w.World.CreateTable(name, s)
	return err
}

// Sync is a no-op: a plain world has no ghosts to materialize.
func (WorldSeeder) Sync() error { return nil }

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

// seedCascade loads cascadePackXML and spawns drifting pulsers.
func seedCascade(g seeder, c Crowd) error {
	if err := loadPack(g, "cascade", cascadePackXML); err != nil {
		return err
	}
	return spawnMovers(g, "pulser", c.Units, c.Side, c.Seed, c.Speed)
}

// seedMingle loads minglePackXML and spawns drifting minglers.
func seedMingle(g seeder, c Crowd) error {
	if err := loadPack(g, "mingle", minglePackXML); err != nil {
		return err
	}
	return spawnMovers(g, "unit", c.Units, c.Side, c.Seed, c.Speed)
}

// seedConflict loads conflictPackXML and spawns c.Beacons static
// beacons on a uniform grid across the map, then c.Units drifting
// claimers from the seed-fixed stream.
func seedConflict(g seeder, c Crowd) error {
	beacons := c.Beacons
	if beacons <= 0 {
		return fmt.Errorf("shard: conflict crowd needs Beacons > 0, got %d", beacons)
	}
	if err := loadPack(g, "conflict", conflictPackXML); err != nil {
		return err
	}
	cols := 1
	for cols*cols < beacons {
		cols++
	}
	for i := 0; i < beacons; i++ {
		pos := spatial.Vec2{
			X: (float64(i%cols) + 0.5) * c.Side / float64(cols),
			Y: (float64(i/cols) + 0.5) * c.Side / float64(cols),
		}
		if _, err := g.Spawn("beacon", pos); err != nil {
			return err
		}
	}
	return spawnMovers(g, "claimer", c.Units, c.Side, c.Seed, c.Speed)
}

// seedBorder loads borderWritePackXML and spawns c.Units entities from a
// seed-fixed stream. Spawns alternate raider/medic and cluster within ±6
// of the side/2 gridlines — half along the vertical line x = side/2,
// half along the horizontal line y = side/2 — so for every shard count
// whose partition cuts those lines (2, 4, 8 over a square map) a dense
// mixed crowd straddles the borders. Four rng draws per entity keep the
// stream identical for every shard count.
func seedBorder(g seeder, c Crowd) error {
	if err := loadPack(g, "border", borderWritePackXML); err != nil {
		return err
	}
	units, side, speed := c.Units, c.Side, c.Speed
	rng := rand.New(rand.NewSource(c.Seed))
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

// seedDrifting creates the "units" table — indexed position, velocity
// integrated by world physics, and an int hp column so kind-preservation
// paths stay exercised — and spawns c.Units raw rows from a seed-fixed
// stream: positions in [0,side)², velocities in [-speed, speed), four
// rng draws per entity. The stream depends only on the seed, never the
// shard count, so every shard count simulates the identical world.
func seedDrifting(g seeder, c Crowd) error {
	if err := g.CreateTable("units", entity.MustSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
		entity.Column{Name: "vx", Kind: entity.KindFloat},
		entity.Column{Name: "vy", Kind: entity.KindFloat},
		entity.Column{Name: "hp", Kind: entity.KindInt, Default: entity.Int(100)},
	)); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	for i := 0; i < c.Units; i++ {
		if _, err := g.SpawnRaw("units", map[string]entity.Value{
			"x":  entity.Float(rng.Float64() * c.Side),
			"y":  entity.Float(rng.Float64() * c.Side),
			"vx": entity.Float((rng.Float64()*2 - 1) * c.Speed),
			"vy": entity.Float((rng.Float64()*2 - 1) * c.Speed),
		}); err != nil {
			return err
		}
	}
	return g.Sync()
}

// bench/ was written against one function per crowd; until its next
// refresh (ROADMAP 1(g)) these are its views of the registry.

// SeedCascadeCrowd is bench/'s view of the registry's cascade entry.
func SeedCascadeCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return cascadeScenario.Seed(rt, Crowd{Units: units, Side: side, Seed: seed, Speed: speed})
}

// SeedMingleCrowd is bench/'s view of the registry's mingle entry.
func SeedMingleCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return mingleScenario.Seed(rt, Crowd{Units: units, Side: side, Seed: seed, Speed: speed})
}

// SeedBorderCrowd is bench/'s view of the registry's border entry.
func SeedBorderCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return borderScenario.Seed(rt, Crowd{Units: units, Side: side, Seed: seed, Speed: speed})
}

// SeedBorderCluster is bench/'s view of the registry's border entry.
func SeedBorderCluster(cl *Cluster, units int, side float64, seed int64, speed float64) error {
	return borderScenario.Seed(cl, Crowd{Units: units, Side: side, Seed: seed, Speed: speed})
}

// SeedDriftingCrowd is bench/'s view of the registry's drift entry.
func SeedDriftingCrowd(rt *Runtime, units int, side float64, seed int64, speed float64) error {
	return driftScenario.Seed(rt, Crowd{Units: units, Side: side, Seed: seed, Speed: speed})
}

// MingleGhostFields is bench/'s view of the registry's mingle entry.
func MingleGhostFields() []replica.FieldSpec { return mingleScenario.GhostFields }

// BorderGhostFields is bench/'s view of the registry's border entry.
func BorderGhostFields() []replica.FieldSpec { return borderScenario.GhostFields }
