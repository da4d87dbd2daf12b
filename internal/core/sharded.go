package core

import (
	"fmt"
	"io"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/sched"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// ShardedOptions configures OpenSharded. World and Shards are required;
// everything else defaults like Options. Every shard world runs the one
// tick pipeline Options describes.
type ShardedOptions struct {
	// Seed drives all randomness, reproducibly across shard counts.
	Seed int64
	// Shards is the number of region shards.
	Shards int
	// World is the map rectangle partitioned across shards.
	World spatial.Rect

	// CellSize, ScriptFuel and TickDT configure each shard's world.
	CellSize   float64
	ScriptFuel int64
	TickDT     float64
	// Workers fans each shard's query phase and trigger rounds across
	// that many goroutines per tick (default 1): total parallelism is
	// Shards × Workers, and the world hash stays identical for any
	// combination.
	Workers int
	// Pool overrides the worker pool shard ticks and world phases run
	// on (default: the process-wide sched.Shared() pool).
	Pool *sched.Pool
	// ConflictPolicy selects the apply phase's conflict resolution on
	// every shard world: world.ConflictLastWrite (default) or
	// world.ConflictOCC (serializable re-runs via read-set validation).
	ConflictPolicy string
	// EffectRetryCap bounds OCC re-run rounds (see world.Config).
	EffectRetryCap int
	// Tracer records span-based tick traces across all shards and their
	// barriers (nil = off); Profile is the per-behavior /
	// per-rule profiler shared by every shard world (nil = off). See
	// shard.Config.Tracer / Profile.
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

	// ChangeFeed turns on per-tick change-feed recording on every shard
	// world, for external consumers such as the replica fan-out hub.
	ChangeFeed bool
}

// ShardedEngine is a sharded world runtime behind the same content and
// tick surface as Engine: one world partitioned into region shards,
// each ticking as one lockstep peer of an in-process cluster.
type ShardedEngine struct {
	Runtime *shard.Runtime
}

// NewSharded builds a sharded engine.
func NewSharded(opts ShardedOptions) (*ShardedEngine, error) {
	if opts.World.Width() <= 0 || opts.World.Height() <= 0 {
		return nil, fmt.Errorf("core: sharded engine needs a world rect with positive area")
	}
	rt, err := shard.New(shard.Config{
		Seed:           opts.Seed,
		Shards:         opts.Shards,
		World:          opts.World,
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
		ChangeFeed:     opts.ChangeFeed,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{Runtime: rt}, nil
}

// LoadPackXML loads a content pack from XML into every shard; the pack's
// spawns run once, each entity materializing on the shard owning its
// position. Initial ghost mirrors are synchronized before return.
func (e *ShardedEngine) LoadPackXML(r io.Reader) error {
	c, errs := content.LoadAndCompile(r)
	if len(errs) > 0 {
		msg := "core: content pack rejected:"
		for _, err := range errs {
			msg += "\n  " + err.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	if err := e.Runtime.LoadPack(c); err != nil {
		return err
	}
	return e.Runtime.Sync()
}

// Tick advances all shards one step through the tick barrier.
func (e *ShardedEngine) Tick() (shard.StepStats, error) { return e.Runtime.Step() }

// Spawn instantiates an archetype on the shard owning pos.
func (e *ShardedEngine) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	return e.Runtime.Spawn(archetype, pos)
}

// Entities returns the owned-entity total across shards.
func (e *ShardedEngine) Entities() int { return e.Runtime.Entities() }

// Hash returns the deterministic digest of the owned world state; equal
// seeds yield equal hashes for any shard count.
func (e *ShardedEngine) Hash() uint64 { return e.Runtime.Hash() }

// ShardWorld returns shard i's world for inspection.
func (e *ShardedEngine) ShardWorld(i int) *world.World { return e.Runtime.ShardWorld(i) }

// Close stops the shard peers' goroutines.
func (e *ShardedEngine) Close() { e.Runtime.Close() }
