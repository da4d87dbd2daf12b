// Package core assembles the paper's full stack into one engine: a world
// (entity tables + spatial index + scripts + triggers) partitioned into
// region shards that tick as lockstep peers, with optional checkpoint
// persistence of every shard and optional client replication through
// the fan-out hub. One shard is the default and is the plain world. It
// is the implementation behind the public gamedb package.
package core

import (
	"fmt"
	"io"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/persist"
	"gamedb/internal/replica"
	"gamedb/internal/sched"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// Options configures an Engine. The zero value is usable: one shard with
// default sizes, no persistence, no replication. The tick has one
// pipeline and no option selects another: behaviors and trigger rules
// run on the plans their content pack compiled, effects apply columnar,
// triggers drain in effect-aware rounds, and every shard count runs the
// same barrier.
type Options struct {
	// Seed drives all randomness, reproducibly across shard counts.
	Seed int64
	// Shards is the number of region shards (default 1).
	Shards int
	// World is the map rectangle partitioned across shards. It is
	// required when Shards > 1; one shard owns every position, so a
	// single-shard engine may leave it zero.
	World spatial.Rect

	// CellSize is the spatial index cell size.
	CellSize float64
	// ScriptFuel bounds one behavior invocation's work
	// (per entity per tick; see world.Config.ScriptFuel).
	ScriptFuel int64
	// TickDT is simulated seconds per tick.
	TickDT float64
	// Workers fans each shard's query phase (its behaviors) and its
	// trigger rounds across that many goroutines (default 1): total
	// parallelism is Shards × Workers, and the world hash stays identical
	// for any combination.
	Workers int
	// Pool overrides the worker pool tick-parallel phases and the
	// replication fan-out run on (default: the process-wide
	// sched.Shared() pool).
	Pool *sched.Pool
	// ConflictPolicy selects how conflicting assignments resolve in the
	// apply phase: world.ConflictLastWrite (default) or world.ConflictOCC
	// (serializable re-runs via read-set validation; see world.Config).
	ConflictPolicy string
	// EffectRetryCap bounds OCC re-run rounds (see world.Config).
	EffectRetryCap int
	// Tracer records span-based tick traces across all shards and their
	// barriers (nil = off); Profile is the per-behavior / per-rule
	// profiler shared by every shard world (nil = off). Both are inert
	// with respect to world state (see shard.Config.Tracer / Profile).
	Tracer  *obs.Tracer
	Profile *obs.Profiler

	// GhostBand is the mirrored border width (≥ the interaction range;
	// 0 = default 2×CellSize, negative disables ghosts); GhostFields
	// optionally overrides the consistency specs for ghost refresh
	// (default: x/y as Coarse).
	GhostBand   float64
	GhostFields []replica.FieldSpec
	// RebalanceEvery enables load-driven boundary rebalancing every
	// that many ticks (0 = static partition).
	RebalanceEvery int64

	// Checkpoint enables snapshot persistence of every shard with the
	// given policy (persist.Periodic or persist.EventKeyed). Nil
	// disables it.
	Checkpoint persist.Policy

	// ReplicaFields enables client replication of the named numeric
	// columns with per-field consistency classes: every tick pumps the
	// rows the shards own into the engine's Hub. Empty disables it.
	ReplicaFields []replica.FieldSpec
	// AOICell sizes the hub's interest cells (default 4×CellSize).
	AOICell float64
}

// Engine is a running game world with persistence and replication
// attached.
type Engine struct {
	rt   *shard.Runtime
	hub  *replica.Hub
	pump *shard.FeedPump

	// Backing is the checkpoint store (nil without Options.Checkpoint).
	Backing  *persist.Backing
	policy   persist.Policy
	ckptTick int64

	// Checkpoints counts snapshots taken; LostOnLastCrash reports the
	// ticks rolled back by the most recent CrashAndRecover.
	Checkpoints     int64
	LostOnLastCrash int64
}

// New builds an engine.
func New(opts Options) (*Engine, error) {
	if err := replica.CheckSpecs(opts.ReplicaFields); err != nil {
		return nil, err
	}
	rect := opts.World
	if opts.Shards <= 1 && (rect.Width() <= 0 || rect.Height() <= 0) {
		// One region owns every position (Locate clamps onto the map), so
		// its extent decides nothing.
		rect = spatial.NewRect(0, 0, 1, 1)
	}
	rt, err := shard.New(shard.Config{
		Seed:           opts.Seed,
		Shards:         opts.Shards,
		World:          rect,
		CellSize:       opts.CellSize,
		ScriptFuel:     opts.ScriptFuel,
		TickDT:         opts.TickDT,
		Workers:        opts.Workers,
		Pool:           opts.Pool,
		ConflictPolicy: opts.ConflictPolicy,
		EffectRetryCap: opts.EffectRetryCap,
		Tracer:         opts.Tracer,
		Profile:        opts.Profile,
		GhostBand:      opts.GhostBand,
		GhostFields:    opts.GhostFields,
		RebalanceEvery: opts.RebalanceEvery,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{rt: rt}
	if opts.Checkpoint != nil {
		e.policy = opts.Checkpoint
		e.Backing = &persist.Backing{}
	}
	if len(opts.ReplicaFields) > 0 {
		cell := opts.AOICell
		if cell <= 0 {
			cell = 4 * opts.CellSize
			if cell <= 0 {
				cell = 64
			}
		}
		e.hub = replica.NewHub(replica.HubConfig{Specs: opts.ReplicaFields, Cell: cell, Pool: opts.Pool})
		e.pump = shard.NewFeedPump(rt, e.hub)
	}
	return e, nil
}

// LoadPackXML loads a content pack from XML into every shard; the pack's
// spawns run once, each entity materializing on the shard owning its
// position. Compile errors are joined into one error listing every
// problem. Initial ghost mirrors synchronize, and the hub learns the
// population, before return.
func (e *Engine) LoadPackXML(r io.Reader) error {
	c, errs := content.LoadAndCompile(r)
	if len(errs) > 0 {
		msg := "core: content pack rejected:"
		for _, err := range errs {
			msg += "\n  " + err.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	if err := e.rt.LoadPack(c); err != nil {
		return err
	}
	if err := e.rt.Sync(); err != nil {
		return err
	}
	e.replicate()
	return nil
}

// Tick advances every shard one step through the tick barrier, ships the
// tick to replicas, and applies the checkpoint policy (a tick is an
// unimportant "action"; call NoteImportant for boss kills and loot).
func (e *Engine) Tick() (shard.StepStats, error) {
	st, err := e.rt.Step()
	if err != nil {
		return st, err
	}
	e.replicate()
	if e.policy != nil && e.policy.ShouldCheckpoint(persist.Action{Tick: st.Tick}, st.Tick-e.ckptTick) {
		if err := e.Checkpoint(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replicate pumps the shards' owned rows into the hub and flushes it to
// the clients.
func (e *Engine) replicate() {
	if e.pump != nil {
		e.pump.Pump()
		e.hub.FlushTick()
	}
}

// NoteImportant reports an important event (boss kill, rare loot) to the
// checkpoint policy; under persist.EventKeyed this snapshots immediately.
func (e *Engine) NoteImportant() error {
	if e.policy == nil {
		return nil
	}
	tick := e.rt.Tick()
	if e.policy.ShouldCheckpoint(persist.Action{Tick: tick, Important: true}, tick-e.ckptTick) {
		return e.Checkpoint()
	}
	return nil
}

// Checkpoint snapshots every shard, consistent at the last barrier, into
// the backing store now.
func (e *Engine) Checkpoint() error {
	if e.Backing == nil {
		return fmt.Errorf("core: persistence not configured")
	}
	snap, err := e.rt.Snapshot()
	if err != nil {
		return err
	}
	tick := e.rt.Tick()
	e.Backing.WriteSnapshot(snap, uint64(tick), tick)
	e.ckptTick = tick
	e.Checkpoints++
	return nil
}

// CrashAndRecover simulates a server crash and restores every shard from
// the last checkpoint, reporting how many ticks of play were rolled
// back. Replicas catch up on the next Tick.
func (e *Engine) CrashAndRecover() (int64, error) {
	if e.Backing == nil {
		return 0, fmt.Errorf("core: persistence not configured")
	}
	crashTick := e.rt.Tick()
	snap, _, tick, ok := e.Backing.LatestSnapshot()
	if !ok {
		return 0, persist.ErrNoState
	}
	if err := e.rt.Restore(snap); err != nil {
		return 0, err
	}
	e.ckptTick = tick
	e.LostOnLastCrash = crashTick - tick
	return e.LostOnLastCrash, nil
}

// Spawn instantiates an archetype on the shard owning pos.
func (e *Engine) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	return e.rt.Spawn(archetype, pos)
}

// Set writes a column of the entity on whichever shard owns it.
func (e *Engine) Set(id entity.ID, col string, v entity.Value) error {
	return e.rt.Set(id, col, v)
}

// Entities returns the owned-entity total across shards.
func (e *Engine) Entities() int { return e.rt.Entities() }

// Hash returns the deterministic digest of the owned world state, the
// sum of every shard world's world.Digest; equal seeds yield equal
// hashes for any shard count.
func (e *Engine) Hash() uint64 { return e.rt.Hash() }

// ShardWorld returns shard i's world for inspection.
func (e *Engine) ShardWorld(i int) *world.World { return e.rt.ShardWorld(i) }

// Runtime returns the shard runtime the engine drives, for seeders and
// tools that work on the cluster directly.
func (e *Engine) Runtime() *shard.Runtime { return e.rt }

// Hub returns the client fan-out hub (nil without Options.ReplicaFields);
// connect clients with Hub().AddClient.
func (e *Engine) Hub() *replica.Hub { return e.hub }

// Close stops the shard peers' goroutines.
func (e *Engine) Close() { e.rt.Close() }
