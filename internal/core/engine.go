// Package core assembles the paper's full stack into one engine: a
// tick-based world (entity tables + spatial index + scripts + triggers)
// with optional checkpoint persistence and optional client replication.
// It is the implementation behind the public gamedb package.
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
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// Options configures an Engine. The zero value is usable: a world with
// default sizes, no persistence, no replication. The tick has one
// pipeline and no option selects another: behaviors and trigger rules
// run on the query plans their content pack compiled (the interpreter
// takes over per invocation when a plan cannot), effects apply
// columnar, and triggers drain in effect-aware rounds.
type Options struct {
	// Seed drives all engine randomness.
	Seed int64
	// CellSize is the spatial index cell size.
	CellSize float64
	// ScriptFuel bounds one behavior invocation's interpretation work
	// (per entity per tick; see world.Config.ScriptFuel).
	ScriptFuel int64
	// TickDT is simulated seconds per tick.
	TickDT float64
	// Workers fans the tick's query phase (behaviors + physics) and its
	// trigger rounds across that many goroutines (default 1); world
	// state is identical for any value.
	Workers int
	// Pool overrides the worker pool tick-parallel phases run on
	// (default: the process-wide sched.Shared() pool).
	Pool *sched.Pool
	// ConflictPolicy selects how conflicting assignments resolve in the
	// apply phase: world.ConflictLastWrite (default) or world.ConflictOCC
	// (serializable re-runs via read-set validation; see world.Config).
	ConflictPolicy string
	// EffectRetryCap bounds OCC re-run rounds (see world.Config).
	EffectRetryCap int
	// Tracer records span-based tick traces (nil = off); the engine's
	// world records onto the tracer's shard-0 context. Profile is the
	// per-behavior / per-rule profiler (nil = off). Both are inert with
	// respect to world state (see world.Config.Trace / Profile).
	Tracer  *obs.Tracer
	Profile *obs.Profiler

	// Checkpoint enables snapshot persistence with the given policy
	// (persist.Periodic or persist.EventKeyed). Nil disables it.
	Checkpoint persist.Policy

	// ReplicaFields enables client replication of the named float
	// columns with per-field consistency classes. Empty disables it.
	ReplicaFields []replica.FieldSpec
	// ReplicaTable is the spatial table whose entities replicate
	// (default "units").
	ReplicaTable string
	// AOICell sizes the interest-management grid (default 4×CellSize).
	AOICell float64
}

// Engine is a running game shard with persistence and replication
// attached.
type Engine struct {
	World   *world.World
	Backing *persist.Backing
	Replica *replica.Server

	policy     persist.Policy
	ckptTick   int64
	replTable  string
	replFields []replica.FieldSpec
	replKnown  map[entity.ID]bool

	// Checkpoints counts snapshots taken; LostOnLastCrash reports the
	// actions... (ticks) rolled back by the most recent CrashAndRecover.
	Checkpoints     int64
	LostOnLastCrash int64
}

// New builds an engine.
func New(opts Options) (*Engine, error) {
	e := &Engine{
		World: world.New(world.Config{
			Seed:           opts.Seed,
			CellSize:       opts.CellSize,
			ScriptFuel:     opts.ScriptFuel,
			TickDT:         opts.TickDT,
			Workers:        opts.Workers,
			Pool:           opts.Pool,
			ConflictPolicy: opts.ConflictPolicy,
			EffectRetryCap: opts.EffectRetryCap,
			Trace:          opts.Tracer.Context(0),
			Profile:        opts.Profile,
		}),
	}
	if opts.Checkpoint != nil {
		e.policy = opts.Checkpoint
		e.Backing = &persist.Backing{}
	}
	if len(opts.ReplicaFields) > 0 {
		cell := opts.AOICell
		if cell <= 0 {
			if opts.CellSize > 0 {
				cell = 4 * opts.CellSize
			} else {
				cell = 64
			}
		}
		srv, err := replica.NewServer(opts.ReplicaFields, cell)
		if err != nil {
			return nil, err
		}
		e.Replica = srv
		e.replFields = opts.ReplicaFields
		e.replTable = opts.ReplicaTable
		if e.replTable == "" {
			e.replTable = "units"
		}
		e.replKnown = make(map[entity.ID]bool)
	}
	return e, nil
}

// LoadPackXML loads a content pack from XML. Compile errors are joined
// into one error listing every problem.
func (e *Engine) LoadPackXML(r io.Reader) error {
	c, errs := content.LoadAndCompile(r)
	if len(errs) > 0 {
		msg := "core: content pack rejected:"
		for _, err := range errs {
			msg += "\n  " + err.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	return e.World.LoadPack(c)
}

// Tick advances the world one step, synchronizes replicas, and applies
// the checkpoint policy (a tick is an unimportant "action"; call
// NoteImportant for boss kills and loot).
func (e *Engine) Tick() (world.TickStats, error) {
	st, err := e.World.Step()
	if err != nil {
		return st, err
	}
	if e.Replica != nil {
		e.syncReplica()
		e.Replica.FlushTick()
	}
	if e.policy != nil {
		if e.policy.ShouldCheckpoint(persist.Action{Tick: st.Tick}, st.Tick-e.ckptTick) {
			if err := e.Checkpoint(); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// NoteImportant reports an important event (boss kill, rare loot) to the
// checkpoint policy; under persist.EventKeyed this snapshots immediately.
func (e *Engine) NoteImportant() error {
	if e.policy == nil {
		return nil
	}
	tick := e.World.Tick()
	if e.policy.ShouldCheckpoint(persist.Action{Tick: tick, Important: true}, tick-e.ckptTick) {
		return e.Checkpoint()
	}
	return nil
}

// Checkpoint snapshots the world into the backing store now.
func (e *Engine) Checkpoint() error {
	if e.Backing == nil {
		return fmt.Errorf("core: persistence not configured")
	}
	snap, err := e.World.Snapshot()
	if err != nil {
		return err
	}
	tick := e.World.Tick()
	e.Backing.WriteSnapshot(snap, uint64(tick), tick)
	e.ckptTick = tick
	e.Checkpoints++
	return nil
}

// CrashAndRecover simulates a server crash and restores the last
// checkpoint, reporting how many ticks of play were rolled back.
func (e *Engine) CrashAndRecover() (int64, error) {
	if e.Backing == nil {
		return 0, fmt.Errorf("core: persistence not configured")
	}
	crashTick := e.World.Tick()
	snap, _, tick, ok := e.Backing.LatestSnapshot()
	if !ok {
		return 0, persist.ErrNoState
	}
	if err := e.World.Restore(snap); err != nil {
		return 0, err
	}
	if e.replKnown != nil {
		e.replKnown = make(map[entity.ID]bool)
	}
	e.ckptTick = tick
	e.LostOnLastCrash = crashTick - tick
	return e.LostOnLastCrash, nil
}

// syncReplica pushes configured columns of the replica table into the
// replication server.
func (e *Engine) syncReplica() {
	tab, ok := e.World.Table(e.replTable)
	if !ok {
		return
	}
	s := tab.Schema()
	type fieldCol struct {
		name string
		idx  int
	}
	var cols []fieldCol
	for _, f := range e.replFields {
		if ci, has := s.Col(f.Name); has {
			cols = append(cols, fieldCol{f.Name, ci})
		}
	}
	seen := make(map[entity.ID]bool, tab.Len())
	tab.Scan(func(id entity.ID, row []entity.Value) bool {
		seen[id] = true
		pos, hasPos := e.World.Pos(id)
		if !e.replKnown[id] {
			e.Replica.Spawn(replica.ID(id), pos)
			e.replKnown[id] = true
		} else if hasPos {
			e.Replica.MoveEntity(replica.ID(id), pos)
		}
		for _, fc := range cols {
			if f, okF := row[fc.idx].AsFloat(); okF {
				e.Replica.Set(replica.ID(id), fc.name, f)
			}
		}
		return true
	})
	for id := range e.replKnown {
		if !seen[id] {
			e.Replica.Despawn(replica.ID(id))
			delete(e.replKnown, id)
		}
	}
}

// Spawn proxies world.Spawn for API convenience.
func (e *Engine) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	return e.World.Spawn(archetype, pos)
}
