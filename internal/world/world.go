// Package world is the tick-based game server that integrates every
// substrate: the entity store holds state, a spatial grid indexes
// positions (kept in sync as rows enter, move and leave, the way a
// database maintains indexes), GSL scripts drive per-entity behavior
// under a per-invocation fuel budget, triggers route events, and content packs
// populate all of it. The persistence, replication and concurrency
// subsystems attach to this loop in the examples and experiments.
package world

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/sched"
	"gamedb/internal/script"
	"gamedb/internal/spatial"
	"gamedb/internal/trigger"
	"gamedb/internal/txn"
)

// Conflict policies for the apply phase's conflicting assignments (two
// invocations `set`ting the same (entity, column) cell in one merge).
const (
	// ConflictLastWrite resolves conflicts by the deterministic merged
	// order: the last write in (source id, source order) wins and the
	// losing writes are silently superseded. This is the state-effect
	// paper's resolution-by-fiat, bit-identical to every prior release,
	// and the default.
	ConflictLastWrite = "lastwrite"
	// ConflictOCC gives conflicting assignments serializable semantics
	// via the generalized internal/txn OCC core: the query phase records
	// every invocation's read-set, the apply merge detects losing
	// assignments, and losers that read a cell the winning set wrote are
	// withheld and re-run serially (deterministic source order, worker
	// slot 0's fuel-metered plans) against the post-apply state, round
	// by round until a fixpoint or Config.EffectRetryCap.
	// Invocations still conflicting at the cap abort: their effects are
	// dropped and counted in TickStats.EffectAborts. State remains
	// hash-invariant across any Shards × Workers combination.
	ConflictOCC = "occ"
)

// DefaultEffectRetryCap bounds OCC re-run rounds when
// Config.EffectRetryCap is unset.
const DefaultEffectRetryCap = 8

// CompileOn is inert: it is the value bench/workloads.go still assigns
// to the one shard.Config field nothing reads. Behaviors always run on
// their compiled plans; the constant goes when that field does
// (ROADMAP 1(g)).
const CompileOn = "on"

// Config parameterizes a world.
type Config struct {
	// Seed drives every random decision for reproducibility.
	Seed int64
	// CellSize is the spatial index cell size (default 16).
	CellSize float64
	// ScriptFuel is the fuel budget of one behavior invocation — one
	// entity's on_tick call (default script.DefaultFuel). Per-invocation
	// (rather than the old per-script-per-tick pool) keeps an entity's
	// success independent of roster partitioning, which is what makes
	// the tick worker-count invariant; it means a runaway script costs
	// up to ScriptFuel × entities per tick, not ScriptFuel.
	ScriptFuel int64
	// TickDT is simulated seconds per tick (default 0.1).
	TickDT float64
	// Workers is the number of goroutines the tick's read-only query
	// phase (its behaviors) fans across (default 1). The
	// state-effect pipeline makes the resulting world state identical
	// for any value, so Workers is purely a throughput knob.
	Workers int
	// Pool is the worker pool tick-parallel phases run on. Nil means
	// the process-wide sched.Shared() pool (sized to GOMAXPROCS), which
	// every world and shard runtime shares by default so Shards ×
	// Workers configurations cannot oversubscribe the scheduler.
	Pool *sched.Pool
	// ConflictPolicy selects how the apply phase resolves conflicting
	// assignments: ConflictLastWrite (the default; "" and any unknown
	// value behave identically) or ConflictOCC (serializable re-runs via
	// read-set validation). See the policy constants for semantics.
	ConflictPolicy string
	// EffectRetryCap bounds the OCC re-run rounds of one apply under
	// ConflictOCC (≤ 0 selects DefaultEffectRetryCap). Each round
	// re-executes the still-invalidated invocations serially; anything
	// still conflicting when the cap trips aborts into
	// TickStats.EffectAborts.
	EffectRetryCap int
	// Trace is the span context the tick phases record into — query,
	// apply, trigger drain, each trigger cascade round and each OCC
	// retry round, plus the enclosing tick span (nil = tracing off).
	// Recording reads the clock and appends into a fixed ring; it never
	// touches tables, effect ordering or RNG streams, so traced runs
	// stay hash-identical to untraced ones.
	Trace *obs.SpanCtx
	// Profile is the per-behavior / per-rule profiler invocations
	// attribute to (nil = profiling off): exact call / fuel / effect /
	// read-set counters plus 1-in-16 sampled wall time per behavior
	// script and trigger rule, with OCC retries/aborts and apply-phase
	// conflicts attributed back to the responsible unit. Like Trace,
	// profiling is inert with respect to world state.
	Profile *obs.Profiler
}

// World is a running game shard.
type World struct {
	cfg Config
	rng *rand.Rand

	tables map[string]*entity.Table
	// dir is the entity directory (directory.go): each entity's table,
	// grid slot, behavior, ghost mark and ghost route behind one probe.
	dir        directory
	archetypes map[string]*content.Archetype
	// scripts maps every loaded script name to its behavior executor; a
	// script without an on_tick never runs as a behavior and maps to nil.
	scripts map[string]*boundBehavior
	frames  []content.UIFrame

	// index is the spatial grid over every spatial table's rows, addressed
	// by the slots the directory records hold.
	index *spatial.Grid
	trig  *trigger.Engine

	// trigBound maps every registered rule to its compiled plans and
	// per-worker bindings; bindTrigger is the only registration path.
	trigBound map[*trigger.Rule]*boundTrigger

	nextID   entity.ID
	idStride entity.ID
	tick     int64

	// tableList caches the sorted table names, which the query phase's
	// physics table scan reads every tick; CreateTable and ResetState
	// invalidate it.
	tableList []string

	// pool is the worker pool every tick-parallel phase fans across
	// (the query phase, trigger rounds): cfg.Pool, or the process-wide
	// shared pool. Worlds never spawn per-tick goroutines. queryJob is the
	// query phase's region on it, fanning queryChunk over queryWorkers
	// chunks without allocating.
	pool         *sched.Pool
	queryJob     *sched.Job
	queryChunkFn func(int)
	queryWorkers int

	// Per-worker state for the parallel query phase. Buffers persist
	// across ticks because each worker's bound plans capture theirs. The
	// remaining slices are scratch reused tick-to-tick.
	workerBufs  []*EffectBuffer
	workerStats []workerStats
	rosterBuf   []ownRef
	physTabs    []physTable
	// physList is the tick's physics snapshot, ascending by id; physNext
	// is the cursor of the one apply that integrates it (integrate).
	physList []physRef
	physNext int
	mergeBuf []Effect
	// sortEffects' key scratch (effect.go): the keys, the buffer they
	// merge through, and the run boundaries.
	sortKeys, sortSpare []effKey
	sortRuns            []int32

	// Columnar-apply scratch (apply_batch.go), reused tick-to-tick.
	setBatches []colBatch
	addBatches []colBatch
	moveBuf    []spatial.SlotMove
	moveStamps []rowStamps
	moveEpoch  uint64

	// Trigger-round state (trigger_phase.go), reused round-to-round so
	// cascade draining allocates nothing per round: trigRnd is the round
	// in flight, trigJob its region on the pool, fanning condChunk and
	// actChunk over the workers. trigEvBuf and trigMatchBuf are the
	// caller-owned round buffers the engine's TakeRound/MatchRound fill.
	trigRnd      trigRound
	trigJob      *sched.Job
	condChunkFn  func(int)
	actChunkFn   func(int)
	trigEvBuf    []trigger.Event
	trigMatchBuf []trigger.Match

	// Observability (instrument.go). trace/prof mirror Config.Trace /
	// Config.Profile; nil means off, and every hook no-ops behind one
	// nil check. Behaviors and rules cache their profile rows on their
	// bound executors; otherProf, the "(unattributed)" row, takes
	// records whose source maps to no behavior or rule row; profOf is the
	// source-id → entry mapping of the apply currently in flight (set by
	// the owning phase so conflict / retry / abort attribution knows
	// whose record dropped).
	trace     *obs.SpanCtx
	prof      *obs.Profiler
	otherProf *obs.ProfEntry
	profOf    func(entity.ID) *obs.ProfEntry

	// OCC conflict-resolution scratch (occ.go), reused apply-to-apply.
	occWrites    txn.WriteSet[readCell, entity.ID]
	occReadIdx   map[entity.ID][]readCell
	occSeen      map[entity.ID]struct{}
	occExclude   map[entity.ID]struct{}
	occInvalid   []entity.ID
	occFilterBuf []Effect

	// Cross-shard effect-forwarding state (remote.go). Ghost routes live
	// on the directory records (SetGhostRoute); with none installed every
	// forwarding hook is inert. outbound holds the per-owner batches,
	// kept with their capacity from barrier to barrier (outLive: they
	// hold what was forwarded since the last TakeOutbound);
	// inRecs/inInvocs/inReads queue the foreign records and OCC metadata
	// delivered for the current barrier; heldLocal withholds the local
	// halves of border invocations (their records in heldRecs) until the
	// barrier commit. exRecs is the barrier's sorted exchange, current
	// while exReady.
	// tickWrites is the owner-side committed-write set validation reads
	// (maintained only under occ with routes installed); pendWrites
	// carries barrier re-run writes into the next tick's set. The pend*
	// counters fold barrier-time accounting into the next tick's
	// TickStats; statForwarded tallies records sealed outbound.
	shardIdx         int
	outbound         map[int]*RemoteEffectBatch
	outLive          bool
	inRecs           []foreignRec
	inInvocs         []foreignInvoc
	inReads          []readCell
	heldLocal        []heldInvoc
	heldRecs         []Effect
	tickWrites       map[readCell]struct{}
	pendWrites       []readCell
	fwdWrites        txn.WriteSet[readCell, fwdOwner]
	fwdOwners        []int
	exRecs           []foreignRec
	exReady          bool
	exEffects        []Effect
	verdicts         []ForeignInvalidation
	rerunTags        map[entity.ID]invocTag
	applyRemoteRerun bool
	inExchange       bool
	statForwarded    int
	// statFallbacks is the last tick's count of invocations that ran on
	// the scalar plan instead of a batched run (batch.go): behaviors and
	// trigger conditions and actions.
	statFallbacks    int
	pendRemoteMerged int
	pendRemoteInval  int
	pendEffects      int
	pendConflicts    int
	pendRetries      int
	pendAborts       int
	pendFuel         int64

	// LastScriptError keeps the most recent behavior error for
	// diagnostics; the tick itself continues (one bad designer script
	// must not stop the shard).
	LastScriptError error
}

// TickStats summarizes one tick.
type TickStats struct {
	Tick         int64
	Entities     int
	ScriptCalls  int
	ScriptErrors int
	// ScriptSkips counts behavior invocations whose effects were
	// discarded because the invocation exhausted its fuel budget (a
	// skipped query, not an error — one greedy designer script must not
	// stop the shard).
	ScriptSkips int
	FuelUsed    int64
	// CompiledCalls equals ScriptCalls: every behavior invocation runs on
	// its compiled plan. It stays only because bench/measure.go reads it
	// (world.compiled_frac); ROADMAP 1(g) deletes both.
	CompiledCalls int
	TriggerFired  int
	// TriggerRounds counts trigger cascade rounds drained this tick —
	// under the effect-aware drain each round is its own mini tick
	// (parallel condition queries, fanned actions, one apply).
	TriggerRounds int
	// TriggerEffects and TriggerConflicts mirror Effects/EffectConflicts
	// for the trigger rounds' apply passes, so behavior-phase and
	// trigger-phase contention stay separately observable.
	TriggerEffects   int
	TriggerConflicts int
	// TriggerErrors counts rule activations whose condition or action
	// failed this tick (their effects rolled back; the batch continues
	// and the errors aggregate out of Step). TriggerSkips counts trigger
	// invocations discarded by fuel exhaustion — like ScriptSkips, a
	// skipped query rather than an error.
	TriggerErrors int
	TriggerSkips  int
	// Effects is the number of effect records merged in the apply
	// phase; EffectConflicts counts records dropped by deterministic
	// conflict resolution (e.g. a set against an entity another
	// behavior despawned the same tick).
	Effects         int
	EffectConflicts int
	// EffectRetries counts invocation re-runs performed by the OCC
	// conflict policy (behavior-phase and trigger-round applies
	// combined): losers of conflicting assignments that read a cell the
	// winning set wrote, re-executed against post-apply state.
	// EffectAborts counts invocations whose effects were dropped — still
	// conflicting when EffectRetryCap tripped, or erroring during a
	// re-run. Both stay zero under ConflictLastWrite.
	EffectRetries int
	EffectAborts  int
	// EffectsForwarded counts effect records this tick sealed into
	// outbound RemoteEffectBatches instead of applying locally — writes
	// targeting ghost mirrors, routed to their owning shards at the next
	// barrier (plus any records a barrier re-run forwarded since the
	// last tick). EffectsRemoteMerged counts foreign records merged into
	// this world at the preceding barrier's exchange; RemoteInvalidations
	// counts foreign invocations this world invalidated there (occ only:
	// their reads overlapped the owner's committed or surviving writes,
	// and a re-run was requested back to the originating shard). All
	// three stay zero until the shard runtime installs ghost routes.
	EffectsForwarded    int
	EffectsRemoteMerged int
	RemoteInvalidations int
	// QueryNS, ApplyNS and TriggerNS split the tick's wall time between
	// the parallel read-only query phase, the sequential effect apply,
	// and the trigger drain, so the merge overhead and cascade cost are
	// measurable.
	QueryNS   int64
	ApplyNS   int64
	TriggerNS int64
}

// New builds an empty world.
func New(cfg Config) *World {
	if cfg.CellSize <= 0 {
		cfg.CellSize = 16
	}
	if cfg.ScriptFuel <= 0 {
		cfg.ScriptFuel = script.DefaultFuel
	}
	if cfg.TickDT <= 0 {
		cfg.TickDT = 0.1
	}
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Shared()
	}
	w := &World{
		cfg:        cfg,
		pool:       pool,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		tables:     make(map[string]*entity.Table),
		archetypes: make(map[string]*content.Archetype),
		scripts:    make(map[string]*boundBehavior),
		index:      spatial.NewGrid(cfg.CellSize),
		trig:       trigger.NewEngine(0),
		trigBound:  make(map[*trigger.Rule]*boundTrigger),
		idStride:   1,
		trace:      cfg.Trace,
		prof:       cfg.Profile,
	}
	w.queryJob, w.queryChunkFn = pool.NewJob(), w.queryChunk
	w.trigJob, w.condChunkFn, w.actChunkFn = pool.NewJob(), w.condChunk, w.actChunk
	if w.prof != nil {
		w.otherProf = w.prof.Entry("(unattributed)")
	}
	return w
}

// SetIDAllocator makes locally assigned entity IDs start at next and
// advance by stride. The shard runtime gives each shard a disjoint
// residue class so script-driven spawns on different shards can never
// collide.
func (w *World) SetIDAllocator(next entity.ID, stride uint64) {
	if stride == 0 {
		stride = 1
	}
	// nextID holds the last assigned id (SpawnRaw pre-increments).
	w.nextID = next - entity.ID(stride)
	w.idStride = entity.ID(stride)
}

// Tick returns the current tick number.
func (w *World) Tick() int64 { return w.tick }

// occEnabled reports whether the OCC conflict policy is active. Any
// value other than ConflictOCC — including "" and ConflictLastWrite —
// selects last-write-wins.
func (w *World) occEnabled() bool { return w.cfg.ConflictPolicy == ConflictOCC }

// effectRetryCap returns the bounded OCC re-run round count.
func (w *World) effectRetryCap() int {
	if w.cfg.EffectRetryCap > 0 {
		return w.cfg.EffectRetryCap
	}
	return DefaultEffectRetryCap
}

// Frames returns UI frames loaded from content packs.
func (w *World) Frames() []content.UIFrame { return w.frames }

// isSpatial reports whether a schema carries float x and y columns.
func isSpatial(s *entity.Schema) bool {
	_, _, ok := spatialCols(s)
	return ok
}

// CreateTable registers a table. Rows of tables with float x/y columns
// are spatially indexed: the world enters each spawned row into the
// grid, and a change listener follows row writes to x or y.
func (w *World) CreateTable(name string, s *entity.Schema) (*entity.Table, error) {
	if _, dup := w.tables[name]; dup {
		return nil, fmt.Errorf("world: table %q already exists", name)
	}
	w.tableList = nil
	t := entity.NewTable(name, s)
	if isSpatial(s) {
		t.OnChange(func(c entity.Change) {
			if c.Kind != entity.ChangeUpdate || (c.Col != "x" && c.Col != "y") {
				return
			}
			rec := w.dir.find(c.ID)
			xci, yci, ok := spatialCols(t.Schema())
			if rec != nil && rec.slot != noSlot && ok {
				r, _ := t.RowIndex(c.ID)
				w.index.MoveSlot(rec.slot, posAt(t, xci, yci, r))
			}
		})
	}
	w.tables[name] = t
	return t, nil
}

// Table returns a registered table.
func (w *World) Table(name string) (*entity.Table, bool) {
	t, ok := w.tables[name]
	return t, ok
}

// TableNames returns registered table names, sorted.
func (w *World) TableNames() []string {
	return append([]string(nil), w.tableNames()...)
}

// tableNames returns the cached sorted table list. Callers must not
// mutate it — hot paths (the per-tick physics scan, snapshots) use it
// to avoid re-sorting and re-allocating every tick.
func (w *World) tableNames() []string {
	if w.tableList == nil && len(w.tables) > 0 {
		names := make([]string, 0, len(w.tables))
		for n := range w.tables {
			names = append(names, n)
		}
		sort.Strings(names)
		w.tableList = names
	}
	return w.tableList
}

// LoadPack instantiates a compiled content pack: tables, scripts,
// triggers, UI frames, archetypes and initial spawns.
func (w *World) LoadPack(c *content.Compiled) error {
	if err := w.LoadContent(c); err != nil {
		return err
	}
	return ForEachSpawn(c, w.rng, func(archetype string, pos spatial.Vec2) error {
		_, err := w.Spawn(archetype, pos)
		return err
	})
}

// ForEachSpawn iterates a pack's spawn definitions in declaration
// order, drawing each instance's jittered position from rng (two draws
// per instance, x then y). It is the single source of the spawn
// position stream: the single-world LoadPack and every shard peer's
// replicated coordinator stream route through it, which is what makes
// pack spawns land at identical positions regardless of shard count.
func ForEachSpawn(c *content.Compiled, rng *rand.Rand, fn func(archetype string, pos spatial.Vec2) error) error {
	for _, sp := range c.Spawns {
		for i := 0; i < sp.Count; i++ {
			pos := spatial.Vec2{
				X: sp.X + (rng.Float64()*2-1)*sp.Spread,
				Y: sp.Y + (rng.Float64()*2-1)*sp.Spread,
			}
			if err := fn(sp.Archetype, pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadContent instantiates everything in a compiled pack except its
// spawns: tables, scripts, triggers, UI frames and archetypes. The shard
// runtime loads content into every shard but performs the pack's spawns
// itself so each entity materializes on exactly one shard (and at the
// same position regardless of shard count).
func (w *World) LoadContent(c *content.Compiled) error {
	for name, s := range c.Schemas {
		if _, err := w.CreateTable(name, s); err != nil {
			return err
		}
	}
	for name, a := range c.Archetypes {
		if _, dup := w.archetypes[name]; dup {
			return fmt.Errorf("world: archetype %q already loaded", name)
		}
		w.archetypes[name] = a
	}
	for name, cs := range c.Scripts {
		if _, dup := w.scripts[name]; dup {
			return fmt.Errorf("world: script %q already loaded", name)
		}
		var b *boundBehavior
		if cs.Plan != nil {
			b = &boundBehavior{fn: boundFn{plan: cs.Plan}}
		}
		w.scripts[name] = b
	}
	if len(c.Scripts) > 0 {
		w.bindBehaviors()
	}
	for _, ct := range c.Triggers {
		if err := w.bindTrigger(ct); err != nil {
			return err
		}
	}
	w.frames = append(w.frames, c.Frames...)
	return nil
}

// bindTrigger registers a compiled trigger as a trigger.Rule and
// records its plans in trigBound, where the round drain finds them and
// runs them per worker slot, emitting into effect buffers.
func (w *World) bindTrigger(ct *content.CompiledTrigger) error {
	if ct.ActPlan == nil {
		return fmt.Errorf("world: trigger %q has no compiled action", ct.Name)
	}
	rule := &trigger.Rule{
		Name:     ct.Name,
		Event:    ct.Event,
		Priority: ct.Priority,
		Once:     ct.Once,
	}
	if err := w.trig.Register(rule); err != nil {
		return err
	}
	bt := &boundTrigger{name: ct.Name, src: ct, act: &boundFn{plan: ct.ActPlan}}
	if ct.CondPlan != nil {
		bt.cond = &boundFn{plan: ct.CondPlan}
	}
	w.trigBound[rule] = bt
	return nil
}

// Spawn instantiates an archetype at pos and returns the new entity id.
func (w *World) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	w.nextID += w.idStride
	id := w.nextID
	if err := w.SpawnAt(id, archetype, pos); err != nil {
		w.nextID -= w.idStride
		return 0, err
	}
	return id, nil
}

// SpawnAt instantiates an archetype at pos under a caller-chosen entity
// id. The shard runtime uses it to assign globally unique ids across
// shards; the id must not collide with this world's allocator range.
func (w *World) SpawnAt(id entity.ID, archetype string, pos spatial.Vec2) error {
	a, ok := w.archetypes[archetype]
	if !ok {
		return fmt.Errorf("world: unknown archetype %q", archetype)
	}
	t, err := w.admit(id, a.Table)
	if err != nil {
		return err
	}
	vals := make(map[string]entity.Value, len(a.Values)+2)
	for k, v := range a.Values {
		vals[k] = v
	}
	if _, has := t.Schema().Col("x"); has {
		vals["x"] = entity.Float(pos.X)
		vals["y"] = entity.Float(pos.Y)
	}
	if err := t.Insert(id, vals); err != nil {
		return err
	}
	w.attach(w.enter(id, t), a.Script)
	return nil
}

// SpawnRaw inserts a new entity with explicit values into a table.
func (w *World) SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error) {
	w.nextID += w.idStride
	id := w.nextID
	if err := w.SpawnRawAt(id, table, vals); err != nil {
		w.nextID -= w.idStride
		return 0, err
	}
	return id, nil
}

// admit returns the table a new entity id is to be inserted into. The
// id must be globally fresh: a table only detects duplicates within
// itself, so without this check a cross-table collision would silently
// repoint the entity and orphan the old row.
func (w *World) admit(id entity.ID, table string) (*entity.Table, error) {
	if rec := w.dir.find(id); rec != nil {
		return nil, fmt.Errorf("world: entity %d already exists in table %q", id, rec.tab.Name())
	}
	t, ok := w.tables[table]
	if !ok {
		return nil, fmt.Errorf("world: unknown table %q", table)
	}
	return t, nil
}

// SpawnRawAt inserts a new entity with explicit values and a
// caller-chosen, globally fresh id into a table.
func (w *World) SpawnRawAt(id entity.ID, table string, vals map[string]entity.Value) error {
	t, err := w.admit(id, table)
	if err != nil {
		return err
	}
	if err := t.Insert(id, vals); err != nil {
		return err
	}
	w.enter(id, t)
	return nil
}

// InsertRow inserts a positional row (schema order) with a caller-chosen
// id — the fast path cross-shard handoff uses to rematerialize a
// serialized entity exactly. Like SpawnRawAt, the id must be globally
// fresh.
func (w *World) InsertRow(id entity.ID, table string, row []entity.Value) error {
	t, err := w.admit(id, table)
	if err != nil {
		return err
	}
	if err := t.InsertRow(id, row); err != nil {
		return err
	}
	w.enter(id, t)
	return nil
}

// Despawn removes an entity from its table and the spatial index, and
// drops its behavior, ghost mark and ghost route.
func (w *World) Despawn(id entity.ID) error {
	i, ok := w.dir.at.Get(id)
	if !ok {
		return fmt.Errorf("world: unknown entity %d", id)
	}
	rec := &w.dir.recs[i]
	if err := rec.tab.Delete(id); err != nil {
		return err
	}
	if rec.slot != noSlot {
		w.index.RemoveSlot(rec.slot)
	}
	w.dir.remove(i)
	return nil
}

// attach sets r's behavior script ("" detaches) and its executor.
func (w *World) attach(r *entRec, script string) {
	r.script, r.beh = script, w.scripts[script]
}

// SetBehavior attaches (or, with script "", detaches) a behavior script
// to an entity. Handoff uses it to carry behaviors across shards. It
// reports false, changing nothing, when the world holds no such entity.
func (w *World) SetBehavior(id entity.ID, script string) bool {
	rec := w.dir.find(id)
	if rec == nil {
		return false
	}
	w.attach(rec, script)
	return true
}

// Behavior returns the entity's behavior script name, if any.
func (w *World) Behavior(id entity.ID) (string, bool) {
	if rec := w.dir.find(id); rec != nil && rec.script != "" {
		return rec.script, true
	}
	return "", false
}

// TableOf returns the name of the table holding the entity.
func (w *World) TableOf(id entity.ID) (string, bool) {
	if rec := w.dir.find(id); rec != nil {
		return rec.tab.Name(), true
	}
	return "", false
}

// SetGhost marks or unmarks an entity as a ghost: a read-only mirror of
// an entity owned by a neighboring shard. Ghosts participate in spatial
// queries and reads but run no behaviors and are not integrated by
// physics — their state only changes when the shard runtime re-ships it.
// Unmarking drops the ghost's route. It reports false, changing nothing,
// when the world holds no such entity.
func (w *World) SetGhost(id entity.ID, ghost bool) bool {
	rec := w.dir.find(id)
	if rec == nil {
		return false
	}
	w.dir.setGhost(rec, ghost)
	return true
}

// IsGhost reports whether the entity is a ghost mirror.
func (w *World) IsGhost(id entity.ID) bool {
	rec := w.dir.find(id)
	return rec != nil && rec.ghost
}

// GhostCount returns the number of ghost mirrors present.
func (w *World) GhostCount() int { return w.dir.ghosts }

// GhostIDs returns the ids of all ghost mirrors, sorted. The shard
// runtime uses it to reconcile mirrors that exist in the world but not
// in its own bookkeeping (e.g. resurrected by a snapshot Restore).
func (w *World) GhostIDs() []entity.ID {
	out := w.AppendGhostIDs(make([]entity.ID, 0, w.dir.ghosts))
	slices.Sort(out)
	return out
}

// Get reads a column of any entity.
func (w *World) Get(id entity.ID, col string) (entity.Value, error) {
	rec := w.dir.find(id)
	if rec == nil {
		return entity.Null(), fmt.Errorf("world: unknown entity %d", id)
	}
	return rec.tab.Get(id, col)
}

// Set writes a column of any entity.
func (w *World) Set(id entity.ID, col string, v entity.Value) error {
	rec := w.dir.find(id)
	if rec == nil {
		return fmt.Errorf("world: unknown entity %d", id)
	}
	return rec.tab.Set(id, col, v)
}

// SetMirror writes one column of a ghost mirror the way Set does: the
// table's indexes and the spatial grid follow.
func (w *World) SetMirror(id entity.ID, col string, v entity.Value) error {
	rec := w.dir.find(id)
	if rec == nil || !rec.ghost {
		return fmt.Errorf("world: %d is not a ghost mirror", id)
	}
	ids, vals := [1]entity.ID{id}, [1]entity.Value{v}
	skipped, err := rec.tab.SetColumnBatch(col, ids[:], vals[:])
	if err != nil {
		return err
	}
	if skipped > 0 {
		return fmt.Errorf("world: mirror %d column %q refuses a %s", id, col, v.Kind())
	}
	if rec.slot != noSlot && (col == "x" || col == "y") {
		if xci, yci, ok := spatialCols(rec.tab.Schema()); ok {
			r, _ := rec.tab.RowIndex(id)
			w.index.MoveSlot(rec.slot, posAt(rec.tab, xci, yci, r))
		}
	}
	return nil
}

// Pos returns an entity's indexed position.
func (w *World) Pos(id entity.ID) (spatial.Vec2, bool) {
	if rec := w.dir.find(id); rec != nil {
		return w.slotPos(rec)
	}
	return spatial.Vec2{}, false
}

// slotPos returns the indexed position of rec's grid slot, false for a
// record of a non-spatial table.
func (w *World) slotPos(rec *entRec) (spatial.Vec2, bool) {
	if rec.slot == noSlot {
		return spatial.Vec2{}, false
	}
	return w.index.PosSlot(rec.slot), true
}

// AppendNearby appends the ids within radius of the entity, excluding
// it, sorted by id for determinism, to dst and returns the extended
// slice.
func (w *World) AppendNearby(dst []entity.ID, id entity.ID, radius float64) []entity.ID {
	p, ok := w.Pos(id)
	if !ok {
		return dst
	}
	return w.appendNearbyAt(dst, id, p, radius)
}

// appendNearbyAt is AppendNearby around id's already-resolved position p.
func (w *World) appendNearbyAt(dst []entity.ID, id entity.ID, p spatial.Vec2, radius float64) []entity.ID {
	return spatial.AppendCircle(w.index, dst, p, radius, spatial.ID(id))
}

// Post queues an event for the tick's trigger drain.
func (w *World) Post(name string, id entity.ID, amount entity.Value) {
	w.trig.Post(trigger.Event{Name: name, Entity: id, Amount: amount})
}

// Entities returns the total entity count, ghosts included.
func (w *World) Entities() int { return w.dir.at.Len() }

// LocalEntities returns the count of entities this world owns (total
// minus ghost mirrors).
func (w *World) LocalEntities() int { return w.dir.at.Len() - w.dir.ghosts }

// OwnedPos is one entry of the owned walk: an entity the world owns,
// its table, and — when the table is spatial — its indexed position.
type OwnedPos struct {
	ID      entity.ID
	Table   *entity.Table
	Pos     spatial.Vec2 // zero when !Spatial
	Spatial bool
}

// AppendOwnedPos appends to dst every entity the world owns (every
// record but the ghost mirrors) in ascending id order, with its table
// and indexed position, and returns the extended slice. It reads the
// directory's owned list, so it costs one pass over the owned entities
// and probes no map; the position is read as Pos reads it.
func (w *World) AppendOwnedPos(dst []OwnedPos) []OwnedPos {
	w.dir.sync()
	for _, o := range w.dir.owned {
		rec := &w.dir.recs[o.rec]
		e := OwnedPos{ID: o.id, Table: rec.tab}
		e.Pos, e.Spatial = w.slotPos(rec)
		dst = append(dst, e)
	}
	return dst
}

// AppendGhostIDs appends the ids of all ghost mirrors to dst, unsorted
// — the allocation-free variant of GhostIDs for per-barrier sweeps
// that reuse their buffers and order the result themselves.
func (w *World) AppendGhostIDs(dst []entity.ID) []entity.ID {
	if w.dir.ghosts == 0 {
		return dst
	}
	for i := range w.dir.recs {
		if rec := &w.dir.recs[i]; rec.ghost {
			dst = append(dst, rec.id)
		}
	}
	return dst
}
