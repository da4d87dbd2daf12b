package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/metrics"
	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/sched"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// scriptIDBase is where shard-local (script-driven) entity id allocation
// starts. Coordinator-assigned ids count up from 1, so the two ranges
// cannot collide in any realistic run.
const scriptIDBase = entity.ID(1) << 32

// Config parameterizes a sharded runtime.
type Config struct {
	// Seed drives every random decision (pack spawn jitter, per-shard
	// world RNGs) for reproducibility across shard counts.
	Seed int64
	// Shards is the number of region shards (default 1).
	Shards int
	// World is the map rectangle partitioned across shards.
	World spatial.Rect

	// CellSize, ScriptFuel and TickDT pass through to each shard's
	// world.Config.
	CellSize   float64
	ScriptFuel int64
	TickDT     float64
	// Workers fans each shard world's query phase (behaviors + physics)
	// and its trigger rounds across that many goroutines per tick
	// (default 1), so total parallelism is Shards × Workers. The world's
	// state-effect pipeline keeps the hash identical for any
	// (Shards, Workers) combination.
	Workers int
	// Pool is the worker pool shard ticks and every shard world's
	// tick-parallel phases run on. Nil means the process-wide
	// sched.Shared() pool, so Shards × Workers shares GOMAXPROCS
	// goroutines instead of spawning Shards × Workers of its own.
	Pool *sched.Pool
	// ConflictPolicy passes through to world.Config.ConflictPolicy on
	// every shard world: world.ConflictLastWrite (default) or
	// world.ConflictOCC. Effects never cross a shard mid-tick — writes
	// targeting ghost mirrors forward at the barrier (one tick late,
	// deterministically merged at their owner), and under occ the
	// owner's validation catches cross-shard read-write races and
	// requests re-runs back to the originating shard. Both policies keep
	// the runtime hash invariant across any Shards × Workers combination.
	ConflictPolicy string
	// EffectRetryCap passes through to world.Config.EffectRetryCap.
	EffectRetryCap int
	// CompileBehaviors is inert: nothing reads it. Behaviors always run
	// plan-first with per-invocation interpreter fallback; the field is
	// still declared only because bench/workloads.go assigns it and this
	// change may not edit bench/ (ROADMAP 1(g) deletes both together).
	CompileBehaviors string

	// GhostBand is the width of the border strip mirrored into
	// neighboring shards as read-only ghosts. It should be at least the
	// game's interaction range. 0 means the default (2×CellSize); a
	// negative value disables ghost replication.
	GhostBand float64
	// GhostFields lists the columns re-shipped to existing ghosts each
	// barrier, with replica consistency classes deciding when a value
	// ships. Defaults to x and y as Coarse fields (epsilon = 1% of a
	// cell, MaxAge 20 ticks). Ghost creation always ships the full row.
	GhostFields []replica.FieldSpec
	// ChangeFeed forces change-feed recording on every shard world even
	// when ghost reconcile would not turn it on itself (one shard, or
	// ghosts disabled). The replica fan-out layer consumes the sealed
	// feeds after each Step, so hosts serving clients set this.
	ChangeFeed bool

	// Tracer records span-based tick traces (nil = tracing off): each
	// shard world gets its own per-shard span context (query / apply /
	// trigger rounds / OCC retries, keyed by shard index), and the
	// runtime records the parallel-phase and barrier spans on the
	// coordinator context. Tracing never touches world state, so traced
	// runs keep the Shards × Workers hash invariance.
	Tracer *obs.Tracer
	// Profile passes one per-behavior / per-rule profiler through to
	// every shard world (entries are atomics, so shards share it).
	Profile *obs.Profiler

	// RebalanceEvery shifts region boundaries toward equalized load
	// every that many ticks using per-shard entity counts (0 = never).
	RebalanceEvery int64
	// RebalanceMaxShift bounds one rebalance step as a fraction of the
	// world width (default 0.02).
	RebalanceMaxShift float64
}

// StepStats summarizes one sharded tick.
type StepStats struct {
	Tick     int64
	Entities int // world total, ghosts excluded
	Ghosts   int // ghost mirrors currently materialized
	// Handoffs is the number of entities migrated between shards at
	// this barrier; GhostShips counts field updates shipped to existing
	// ghosts; GhostSnapshots counts ghosts created (full-row ships).
	Handoffs       int
	GhostShips     int
	GhostSnapshots int
	// EffectsForwarded counts effect records carried across this barrier
	// in RemoteEffectBatches (writes that targeted ghost mirrors during
	// the parallel phase); EffectsRemoteMerged counts records merged into
	// their owning shards at this barrier's exchange;
	// RemoteInvalidations counts foreign invocations the owners
	// invalidated (occ only — each triggers a re-run on its originating
	// shard after ghost re-ship).
	EffectsForwarded    int
	EffectsRemoteMerged int
	RemoteInvalidations int
	// Shards aggregates the per-shard world.TickStats of the parallel
	// phase. Note the convention difference: TickStats.Entities counts
	// every row the shard world ticked, ghost mirrors included, while
	// StepStats.Entities above counts owned entities only — summing
	// Shards[i].Entities double-counts the border bands.
	Shards []world.TickStats
	// ParallelNS is the wall time of the parallel tick phase;
	// BarrierNS the wall time of handoff + ghost maintenance;
	// ReconcileNS the ghost-refresh slice of BarrierNS (the phase the
	// incremental reconcile strategy targets).
	ParallelNS  int64
	BarrierNS   int64
	ReconcileNS int64
	// GhostFieldSkips counts (ghost, field) evaluations this barrier
	// declined because the field's value kind supports no drift metric
	// (non-numeric Coarse/Cosmetic). Non-numeric Exact fields DO ship
	// (by equality), so a nonzero count flags a spec/schema mismatch
	// worth fixing rather than silent data loss. The count is per
	// evaluation opportunity, so full-scan and incremental runs report
	// different (both nonzero) values for the same misconfiguration.
	GhostFieldSkips int
	// WireBytesOut/WireBytesIn/WireFrames count tick-barrier transport
	// traffic when the barrier runs over a wire.Transport (Peer/Cluster).
	// The in-process Runtime exchanges pointers, not frames, and reports
	// zero.
	WireBytesOut int64
	WireBytesIn  int64
	WireFrames   int64
}

// ghostRec tracks one ghost mirror's last-shipped field values, plus
// the owner routing that makes the mirror a first-class write target:
// effect records against it forward to route.Owner at the barrier.
type ghostRec struct {
	sent     []float64      // last-shipped value, numeric fields
	sentVal  []entity.Value // last-shipped value, non-numeric fields
	sentTick []int64
	present  []bool // field exists in the entity's table schema
	route    replica.Route
}

// specCol is one GhostField resolved against a concrete table schema:
// column index, whether the column exists, and whether its kind is
// numeric (KindInt/KindFloat — kinds AsFloat always coerces, so
// numeric-ness is schema-static, never per-value).
type specCol struct {
	ci      int
	present bool
	numeric bool
}

// tableSpecInfo caches the GhostField column resolution for one table,
// keyed by schema pointer so a migration-evolved schema invalidates it.
// Hoisting this out of the per-ghost loop is what lets refresh pay per
// field a ValueAt instead of a MustGet (row lookup + column lookup).
type tableSpecInfo struct {
	schema *entity.Schema
	cols   []specCol
}

// shipBatch accumulates one (destination table, field) group of ghost
// field ships so the incremental refresh applies columnar, mirroring
// the world's own apply path. Grouping key is (tab, fi); a spec name is
// unique so (tab, fi) ≡ (tab, col).
type shipBatch struct {
	tab  *entity.Table
	col  string
	fi   int
	pos  bool
	ids  []entity.ID
	vals []entity.Value
	// rows holds the mirror-row index the columnar flush resolved for
	// each id (-1 when skipped), reused by the spatial reindex so it
	// never re-probes the row map.
	rows []int
}

// evalRes memoizes per-(owner, table) resolution — source table, spec
// columns, destination table — across one shard's candidate loop.
type evalRes struct {
	owner int
	table string
	src   *entity.Table
	si    *tableSpecInfo
	dstT  *entity.Table
}

// colRes memoizes one (owner, table)'s spec-column dirty sets for the
// band-side candidate walk. cs is nil when the owner's feed has no
// window for the table (nothing dirtied it).
type colRes struct {
	owner int
	table string
	cs    []map[entity.ID]struct{}
}

// Runtime runs N region shards under a tick-barrier coordinator.
type Runtime struct {
	cfg    Config
	part   *Partitioner
	worlds []*world.World
	rng    *rand.Rand
	specs  []replica.FieldSpec

	// pool executes the parallel tick phase: shard ticks are offered to
	// the shared worker pool and the calling goroutine participates, so
	// the runtime owns no goroutines of its own (each shard world's
	// inner query/trigger fan-out shares the same pool).
	pool *sched.Pool
	// stepErrs is per-tick scratch for the parallel phase's results.
	stepErrs []error

	// ghostRecs[i] holds shard i's ghost mirrors keyed by entity id.
	ghostRecs []map[entity.ID]*ghostRec

	// Reconcile scratch, reused across barriers (maps cleared, slices
	// truncated in place) so ghost maintenance stops allocating per
	// shard per barrier.
	goneSet map[entity.ID]bool
	goneBuf []entity.ID
	idsBuf  []entity.ID
	feedBuf []*entity.ChangeFeed
	shipBuf []shipBatch
	// mirrorMask[id] is the bitmask of shards currently hosting a ghost
	// mirror of id (bit di set ⇔ ghostRecs[di] has id; maintained by
	// snapshotGhost/sweepGone). Candidate collection walks each sealed
	// feed once per barrier and routes every dirty id straight to the
	// shards that mirror it — O(dirty) instead of O(shards × dirty).
	// Bits exist only for di < 64; incremental reconcile degrades to the
	// full scan above 64 shards (see reconcileGhosts).
	mirrorMask map[entity.ID]uint64
	// candLists[di] is shard di's accumulated candidate list, reused
	// across barriers. Collection may append an id more than once (an id
	// dirty in several columns, or spawn-routed and band-probed); the
	// eval loop sorts and skips adjacent duplicates, so no per-id seen
	// set is needed during collection.
	candLists [][]entity.ID
	// colBuf memoizes per-(owner, table) spec-column dirty sets for the
	// band-side candidate walk; truncated after each use.
	colBuf []colRes
	// rowBuf is snapshotGhost's row-copy scratch.
	rowBuf []entity.Value
	// posBuf/posBuf2 merge per-axis position ship batches into the
	// single per-table reindex list; posRowBuf/posRowBuf2 carry the
	// matching mirror-row indices alongside.
	posBuf, posBuf2       []entity.ID
	posRowBuf, posRowBuf2 []int
	// feedsOn/feedsTainted describe the sealed windows in feedBuf,
	// set by rotateFeeds at each barrier.
	feedsOn, feedsTainted bool
	// routeDirty marks barriers where a handoff moved ownership — the
	// only event that can change an existing mirror's route.
	routeDirty bool
	// resBuf memoizes per-(owner, table) resolution inside one shard's
	// candidate evaluation.
	resBuf []evalRes
	// specInfos caches per-table GhostField column resolution (see
	// tableSpecInfo). Entries revalidate by schema pointer; the map is
	// dropped wholesale if Restore churn ever grows it past a cap.
	specInfos map[*entity.Table]*tableSpecInfo
	// dueAt[di][tick] lists ghost ids on shard di whose last refresh
	// declined a diverged field for a purely time-driven reason (Coarse
	// under MaxAge, Cosmetic off-schedule). The incremental strategy
	// re-evaluates exactly these at exactly that tick, which together
	// with the dirty sets makes it ship-for-ship equivalent to the full
	// scan. Entries are supersets: evaluation re-checks ShouldShip, and
	// ids whose mirrors expired are dropped at processing.
	dueAt []map[int64][]entity.ID
	// onShip observes every ghost field ship in apply order, and
	// fullScan makes every barrier refresh through refreshFull — the
	// reference the incremental path is held to, ship for ship. Only the
	// feed tests set either; refreshFull itself also runs in production,
	// as the fallback for a tainted feed window or more than 64 shards.
	onShip   func(di int, id entity.ID, fi int)
	fullScan bool

	// Exchange scratch, reused across barriers so effect forwarding
	// stops allocating per tick: destination-sort buffer, verdict dedup
	// set + rerun list, the per-shard rerun routing map with its sorted
	// key buffer, and the rebalance counts slice.
	dstsBuf    []int
	invalidBuf map[world.ForeignKey]struct{}
	rerunBuf   []world.ForeignInvalidation
	byShardBuf map[int][]world.ForeignInvalidation
	shardsBuf  []int
	countsBuf  []int64

	// desiredBuf is collectBarrier's per-destination candidate maps,
	// cleared and refilled every barrier; reconcileGhosts only reads them
	// and nothing keeps them past it.
	desiredBuf []map[entity.ID]ghostCandidate

	// coordSpans is the coordinator's span context (parallel phase and
	// barrier), nil when tracing is off.
	coordSpans *obs.SpanCtx

	nextID entity.ID
	tick   int64

	// LocalCount[i] is shard i's owned-entity count, refreshed at each
	// barrier; Rebalance consumes it. HandoffTotal, GhostShipTotal and
	// GhostSnapshotTotal accumulate across the run.
	LocalCount         []metrics.Counter
	HandoffTotal       metrics.Counter
	GhostShipTotal     metrics.Counter
	GhostSnapshotTotal metrics.Counter
	// ForwardTotal, RemoteMergeTotal and RemoteInvalidationTotal
	// accumulate the effect-forwarding exchange across the run: records
	// forwarded to owners, foreign records merged, and foreign
	// invocations invalidated by owner-side OCC validation.
	ForwardTotal            metrics.Counter
	RemoteMergeTotal        metrics.Counter
	RemoteInvalidationTotal metrics.Counter
	// GhostFieldSkipTotal accumulates StepStats.GhostFieldSkips;
	// ReconcileNSTotal accumulates the ghost-refresh wall time;
	// FeedCellTotal counts sealed change-feed (table, column, id) cells
	// consumed at barriers (0 when feeds are off).
	GhostFieldSkipTotal metrics.Counter
	ReconcileNSTotal    metrics.Counter
	FeedCellTotal       metrics.Counter
	// StepNS records per-tick wall time (parallel + barrier).
	StepNS metrics.Histogram
}

// withDefaults normalizes a Config exactly as New does. The wire Peer
// applies the same normalization, so a config handed to n peer
// processes means the same thing it means in-process.
func withDefaults(cfg Config) Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.CellSize <= 0 {
		cfg.CellSize = 16
	}
	if cfg.GhostBand == 0 {
		cfg.GhostBand = 2 * cfg.CellSize
	}
	if cfg.GhostBand < 0 {
		cfg.GhostBand = 0
	}
	if len(cfg.GhostFields) == 0 {
		eps := cfg.CellSize * 0.01
		cfg.GhostFields = []replica.FieldSpec{
			{Name: "x", Class: replica.Coarse, Epsilon: eps, MaxAge: 20},
			{Name: "y", Class: replica.Coarse, Epsilon: eps, MaxAge: 20},
		}
	}
	return cfg
}

// newShardWorld builds shard i's world of an n-shard grid. Both
// barriers (Runtime and Peer) construct theirs here, so a shard's world
// is configured identically whichever one drives it.
func newShardWorld(cfg Config, i, n int, pool *sched.Pool, feeds bool) *world.World {
	w := world.New(world.Config{
		// Shard worlds share the seed lineage but must not share a
		// stream: offset by shard index.
		Seed:           cfg.Seed + int64(i)*7919,
		CellSize:       cfg.CellSize,
		ScriptFuel:     cfg.ScriptFuel,
		TickDT:         cfg.TickDT,
		Workers:        cfg.Workers,
		Pool:           pool,
		ConflictPolicy: cfg.ConflictPolicy,
		EffectRetryCap: cfg.EffectRetryCap,
		Trace:          cfg.Tracer.Context(i),
		Profile:        cfg.Profile,
		ChangeFeed:     feeds,
	})
	// Script-driven spawns allocate from disjoint residue classes so
	// ids never collide across shards (or with coordinator ids).
	w.SetIDAllocator(scriptIDBase+entity.ID(i+1), uint64(n))
	w.SetShardIndex(i)
	return w
}

// ghostBand is the rule deciding which shards mirror an entity: every
// shard other than its owner whose region rectangle lies within
// GhostBand of the entity's position. Both barriers ask it, so the
// rule has one home.
type ghostBand struct {
	regions []spatial.Rect
	band2   float64
	on      bool // false: ghosts disabled or a single shard
}

func newGhostBand(width float64, part *Partitioner) ghostBand {
	return ghostBand{
		regions: part.Regions(),
		band2:   width * width,
		on:      width > 0 && part.N() > 1,
	}
}

// mirrors reports whether shard di mirrors an entity at pos owned by
// shard owner.
func (b ghostBand) mirrors(di, owner int, pos spatial.Vec2) bool {
	return di != owner && b.regions[di].Dist2(pos) <= b.band2
}

// New builds a sharded runtime. Shard ticks run on the shared worker
// pool at Step time; the runtime itself owns no goroutines.
func New(cfg Config) (*Runtime, error) {
	cfg = withDefaults(cfg)
	part, err := NewPartitioner(cfg.World, cfg.Shards)
	if err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Shared()
	}
	n := part.N()
	rt := &Runtime{
		cfg:        cfg,
		part:       part,
		worlds:     make([]*world.World, n),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		specs:      cfg.GhostFields,
		pool:       pool,
		stepErrs:   make([]error, n),
		ghostRecs:  make([]map[entity.ID]*ghostRec, n),
		LocalCount: make([]metrics.Counter, n),
		coordSpans: cfg.Tracer.Context(obs.CoordShard),
		goneSet:    make(map[entity.ID]bool),
		mirrorMask: make(map[entity.ID]uint64),
		candLists:  make([][]entity.ID, n),
		specInfos:  make(map[*entity.Table]*tableSpecInfo),
		dueAt:      make([]map[int64][]entity.ID, n),
	}
	// Incremental reconcile needs the shard worlds recording change
	// feeds; cfg.ChangeFeed forces them on for external consumers (the
	// replica fan-out hub) even when reconcile itself doesn't need them.
	feeds := cfg.ChangeFeed || (cfg.GhostBand > 0 && n > 1)
	for i := 0; i < n; i++ {
		rt.worlds[i] = newShardWorld(cfg, i, n, pool, feeds)
		rt.ghostRecs[i] = make(map[entity.ID]*ghostRec)
	}
	return rt, nil
}

// Close releases the runtime. Since the move to the shared worker pool
// the runtime owns no goroutines, so Close is a no-op kept for callers
// written against the per-shard-goroutine runtime.
func (rt *Runtime) Close() {}

// Shards returns the number of region shards.
func (rt *Runtime) Shards() int { return rt.part.N() }

// Tick returns the barrier tick counter.
func (rt *Runtime) Tick() int64 { return rt.tick }

// Partitioner exposes the region partitioner (read-mostly use).
func (rt *Runtime) Partitioner() *Partitioner { return rt.part }

// ShardWorld returns shard i's world for inspection. Outside Step the
// coordinator owns all shard worlds, so reads are safe; mutations should
// go through Runtime methods.
func (rt *Runtime) ShardWorld(i int) *world.World { return rt.worlds[i] }

// Entities returns the owned-entity total across shards (ghosts are
// mirrors, not entities, and are excluded).
func (rt *Runtime) Entities() int {
	n := 0
	for _, w := range rt.worlds {
		n += w.LocalEntities()
	}
	return n
}

// Ghosts returns the number of ghost mirrors currently materialized.
func (rt *Runtime) Ghosts() int {
	n := 0
	for _, w := range rt.worlds {
		n += w.GhostCount()
	}
	return n
}

// LoadPack instantiates a compiled content pack across all shards:
// content (tables, scripts, triggers, archetypes) loads into every shard
// world; the pack's spawns run on the coordinator RNG so each entity
// materializes once, on the shard owning its position, with identical
// ids and positions for every shard count.
func (rt *Runtime) LoadPack(c *content.Compiled) error {
	for _, w := range rt.worlds {
		if err := w.LoadContent(c); err != nil {
			return err
		}
	}
	return world.ForEachSpawn(c, rt.rng, func(archetype string, pos spatial.Vec2) error {
		_, err := rt.Spawn(archetype, pos)
		return err
	})
}

// Spawn instantiates an archetype on the shard owning pos, under a
// coordinator-assigned globally unique id.
func (rt *Runtime) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	rt.nextID++
	id := rt.nextID
	si := rt.part.Locate(pos)
	if err := rt.worlds[si].SpawnAt(id, archetype, pos); err != nil {
		rt.nextID--
		return 0, err
	}
	return id, nil
}

// SpawnRaw inserts an entity with explicit values on the shard owning
// its x/y position (shard 0 when the table is not spatial).
func (rt *Runtime) SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error) {
	si := 0
	if x, okX := vals["x"].AsFloat(); okX {
		if y, okY := vals["y"].AsFloat(); okY {
			si = rt.part.Locate(spatial.Vec2{X: x, Y: y})
		}
	}
	rt.nextID++
	id := rt.nextID
	if err := rt.worlds[si].SpawnRawAt(id, table, vals); err != nil {
		rt.nextID--
		return 0, err
	}
	return id, nil
}

// Owner returns the shard currently holding the entity as a local (the
// world containing a non-ghost row for it), or -1.
func (rt *Runtime) Owner(id entity.ID) int {
	for i, w := range rt.worlds {
		if _, ok := w.TableOf(id); ok && !w.IsGhost(id) {
			return i
		}
	}
	return -1
}

// Step advances the sharded world one tick: every shard steps in
// parallel, then the tick barrier runs the effect-forwarding exchange
// (ghost-targeted writes cross to their owners, are validated under occ
// and merged in deterministic order), rebalances regions (when due),
// hands off entities that crossed a boundary, refreshes ghost mirrors —
// after the foreign merge, so re-ships carry merged values — and
// finally re-runs invalidated border invocations on their originating
// shards against the fresh mirrors.
func (rt *Runtime) Step() (StepStats, error) {
	rt.tick++
	st := StepStats{Tick: rt.tick}

	t0 := time.Now()
	// The parallel phase fans shard ticks across the shared pool; each
	// world's own query/trigger fan-out nests on the same pool, so total
	// concurrency stays bounded by the pool size (plus this caller)
	// regardless of Shards × Workers.
	st.Shards = make([]world.TickStats, len(rt.worlds))
	rt.pool.Par(len(rt.worlds), func(i int) {
		st.Shards[i], rt.stepErrs[i] = rt.worlds[i].Step()
	})
	var firstErr error
	for i, err := range rt.stepErrs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
		rt.stepErrs[i] = nil
	}
	st.ParallelNS = time.Since(t0).Nanoseconds()
	rt.coordSpans.Span(obs.SpanParallel, rt.tick, -1, t0)
	if firstErr != nil {
		return st, firstErr
	}

	t1 := time.Now()
	// Exchange first: owner routes were installed at the previous
	// barrier's reconcile and ownership only changes at barriers, so the
	// routes are still exact here. Merging before handoff/reconcile means
	// migrations and re-ships see post-merge state.
	reruns := rt.exchangeEffects(&st)
	if rt.countsBuf == nil {
		rt.countsBuf = make([]int64, len(rt.worlds))
	}
	counts := rt.countsBuf
	for i, w := range rt.worlds {
		rt.LocalCount[i].Reset()
		rt.LocalCount[i].Add(int64(w.LocalEntities()))
		counts[i] = rt.LocalCount[i].Load()
	}
	if rt.cfg.RebalanceEvery > 0 && rt.tick%rt.cfg.RebalanceEvery == 0 {
		rt.part.Rebalance(counts, rt.cfg.RebalanceMaxShift)
	}
	migs, desired, err := rt.collectBarrier()
	if err != nil {
		return st, err
	}
	if err := rt.applyHandoff(migs); err != nil {
		return st, err
	}
	st.Handoffs = len(migs)
	rt.rotateFeeds()
	t2 := time.Now()
	rec, err := rt.reconcileGhosts(desired)
	st.ReconcileNS = time.Since(t2).Nanoseconds()
	rt.ReconcileNSTotal.Add(st.ReconcileNS)
	rt.coordSpans.Span(obs.SpanReconcile, rt.tick, -1, t2)
	if err != nil {
		return st, err
	}
	st.GhostShips, st.GhostSnapshots = rec.ships, rec.snaps
	st.GhostFieldSkips = rec.skips
	rt.rerunForeign(reruns)
	st.BarrierNS = time.Since(t1).Nanoseconds()
	rt.coordSpans.Span(obs.SpanBarrier, rt.tick, -1, t1)

	for _, w := range rt.worlds {
		st.Entities += w.LocalEntities()
		st.Ghosts += w.GhostCount()
	}
	rt.StepNS.Record(float64(st.ParallelNS + st.BarrierNS))
	return st, nil
}

// Sync runs the barrier phases (exchange + handoff + ghost refresh)
// without stepping, materializing initial ghosts after loading and
// spawning.
func (rt *Runtime) Sync() error {
	reruns := rt.exchangeEffects(nil)
	migs, desired, err := rt.collectBarrier()
	if err != nil {
		return err
	}
	if err := rt.applyHandoff(migs); err != nil {
		return err
	}
	rt.rotateFeeds()
	if _, err = rt.reconcileGhosts(desired); err != nil {
		return err
	}
	rt.rerunForeign(reruns)
	return nil
}

// exchangeEffects runs the effect-forwarding half of one barrier:
// gather every shard's outbound RemoteEffectBatches and deliver them to
// their owning shards (the forward span), then — when anything crossed —
// collect owner-side validation verdicts under occ, union them (a
// multi-owner invocation can be invalidated by several owners) and
// commit the exchange merge at every world, own held records included
// (the remote-merge span). The returned verdicts re-run after ghost
// re-ship (rerunForeign). st is nil when called from Sync.
func (rt *Runtime) exchangeEffects(st *StepStats) []world.ForeignInvalidation {
	n := len(rt.worlds)
	t0 := time.Now()
	forwarded := 0
	for si := 0; si < n; si++ {
		out := rt.worlds[si].TakeOutbound()
		if len(out) == 0 {
			continue
		}
		dsts := rt.dstsBuf[:0]
		for di := range out {
			dsts = append(dsts, di)
		}
		sort.Ints(dsts)
		rt.dstsBuf = dsts
		for _, di := range dsts {
			if di < 0 || di >= n || di == si {
				continue // defensive: a batch cannot route outside the grid
			}
			forwarded += len(out[di].Recs)
			rt.worlds[di].QueueForeign(si, out[di])
		}
	}
	rt.coordSpans.Span(obs.SpanForward, rt.tick, -1, t0)
	if st != nil {
		st.EffectsForwarded = forwarded
	}
	rt.ForwardTotal.Add(int64(forwarded))
	if forwarded == 0 {
		return nil
	}
	t1 := time.Now()
	// All verdicts collect before any world applies: validation reads
	// pre-exchange tick state. The dedup set and rerun list are
	// per-barrier scratch: cleared after rerunForeign, reused forever.
	var invalidSet map[world.ForeignKey]struct{}
	reruns := rt.rerunBuf[:0]
	for di := 0; di < n; di++ {
		for _, iv := range rt.worlds[di].ValidateForeign() {
			if invalidSet == nil {
				if rt.invalidBuf == nil {
					rt.invalidBuf = make(map[world.ForeignKey]struct{})
				}
				invalidSet = rt.invalidBuf
			}
			if _, dup := invalidSet[iv.Key]; dup {
				continue
			}
			invalidSet[iv.Key] = struct{}{}
			reruns = append(reruns, iv)
		}
	}
	rt.rerunBuf = reruns
	merged := 0
	for di := 0; di < n; di++ {
		merged += rt.worlds[di].ExchangeApply(invalidSet)
	}
	if invalidSet != nil {
		clear(invalidSet)
	}
	if st != nil {
		st.EffectsRemoteMerged = merged
		st.RemoteInvalidations = len(reruns)
	}
	rt.RemoteMergeTotal.Add(int64(merged))
	rt.RemoteInvalidationTotal.Add(int64(len(reruns)))
	rt.coordSpans.Span(obs.SpanRemoteMerge, rt.tick, -1, t1)
	return reruns
}

// rerunForeign routes invalidation verdicts back to their source shards
// and re-runs them there, in ascending shard order. It must run after
// reconcileGhosts: a re-run reads the mirrors just re-shipped from the
// owners' merged state. An invocation whose entity migrated this barrier
// re-runs on the entity's new shard; one whose entity despawned falls
// back to its origin shard, where the re-run fails behavior lookup and
// aborts — same accounting as a local OCC re-run of a despawned entity.
func (rt *Runtime) rerunForeign(reruns []world.ForeignInvalidation) {
	if len(reruns) == 0 {
		return
	}
	t0 := time.Now()
	if rt.byShardBuf == nil {
		rt.byShardBuf = make(map[int][]world.ForeignInvalidation)
	}
	byShard := rt.byShardBuf
	for _, r := range reruns {
		o := rt.Owner(r.Key.Src)
		if o < 0 {
			o = r.Key.Shard
		}
		byShard[o] = append(byShard[o], r)
	}
	shards := rt.shardsBuf[:0]
	for o := range byShard {
		shards = append(shards, o)
	}
	sort.Ints(shards)
	rt.shardsBuf = shards
	for _, o := range shards {
		rt.worlds[o].RerunForeign(byShard[o])
		// Keep the per-shard slices' capacity but drop the entries, so
		// the map is empty (not just stale) for the next barrier.
		byShard[o] = byShard[o][:0]
	}
	rt.coordSpans.Span(obs.SpanRemoteMerge, rt.tick, -1, t0)
}

// migration is one entity crossing a region boundary.
type migration struct {
	id       entity.ID
	src, dst int
	table    string
	row      []entity.Value
	behavior string
}

// ghostCandidate is one (entity, destination shard) mirror requirement.
type ghostCandidate struct {
	id    entity.ID
	owner int
	table string
}

// collectBarrier makes one pass over every shard's rows and gathers
// both barrier work lists: entities whose position left their region
// (migrations) and entities within GhostBand of another region (ghost
// candidates, keyed per destination shard). Candidate ownership is the
// post-handoff owner, so ghost reconciliation can run right after the
// migrations apply without rescanning.
func (rt *Runtime) collectBarrier() ([]migration, []map[entity.ID]ghostCandidate, error) {
	n := rt.part.N()
	band := newGhostBand(rt.cfg.GhostBand, rt.part)
	for len(rt.desiredBuf) < n {
		rt.desiredBuf = append(rt.desiredBuf, make(map[entity.ID]ghostCandidate))
	}
	desired := rt.desiredBuf[:n]
	for _, m := range desired {
		clear(m)
	}
	var migs []migration
	for si, w := range rt.worlds {
		for _, name := range w.TableNames() {
			t, _ := w.Table(name)
			for _, id := range t.IDs() {
				if w.IsGhost(id) {
					continue
				}
				pos, ok := w.Pos(id)
				if !ok {
					continue // non-spatial entities never migrate or mirror
				}
				owner := rt.part.Locate(pos)
				if owner != si {
					row, err := t.Row(id)
					if err != nil {
						return nil, nil, err
					}
					beh, _ := w.Behavior(id)
					migs = append(migs, migration{id: id, src: si, dst: owner, table: name, row: row, behavior: beh})
				}
				if !band.on {
					continue
				}
				for di := 0; di < n; di++ {
					if band.mirrors(di, owner, pos) {
						desired[di][id] = ghostCandidate{id: id, owner: owner, table: name}
					}
				}
			}
		}
	}
	return migs, desired, nil
}

// applyHandoff migrates the collected entities in ascending entity-id
// order so the result is deterministic for any shard count. The row
// materializes on the destination before the source despawns it, so a
// failed insert (e.g. a schema missing on one shard) leaves the entity
// intact on its source.
func (rt *Runtime) applyHandoff(migs []migration) error {
	rt.routeDirty = len(migs) > 0
	slices.SortFunc(migs, func(a, b migration) int { return cmp.Compare(a.id, b.id) })
	for _, m := range migs {
		dst := rt.worlds[m.dst]
		// The destination may hold a ghost mirror of this entity; the
		// authoritative row replaces it.
		if dst.IsGhost(m.id) {
			if err := dst.Despawn(m.id); err != nil {
				return err
			}
			delete(rt.ghostRecs[m.dst], m.id)
			if m.dst < 64 {
				if mm := rt.mirrorMask[m.id] &^ (1 << uint(m.dst)); mm == 0 {
					delete(rt.mirrorMask, m.id)
				} else {
					rt.mirrorMask[m.id] = mm
				}
			}
		}
		if err := dst.InsertRow(m.id, m.table, m.row); err != nil {
			return err
		}
		if err := rt.worlds[m.src].Despawn(m.id); err != nil {
			return err
		}
		if m.behavior != "" {
			dst.SetBehavior(m.id, m.behavior)
		}
	}
	rt.HandoffTotal.Add(int64(len(migs)))
	return nil
}

// recStats is one barrier's ghost-maintenance tally.
type recStats struct {
	ships, snaps, skips int
}

// rotateFeeds seals every shard world's change window exactly once per
// barrier, whether or not refresh consumes it: the sealed window then
// covers [previous barrier, this barrier) and the accumulating one
// starts fresh for the next tick. Rotation runs with the apply/handoff
// phase that produced the window's writes, so reconcile timing
// measures refresh strategy rather than feed bookkeeping.
func (rt *Runtime) rotateFeeds() {
	rt.feedsOn = len(rt.worlds) > 0 && rt.worlds[0].FeedEnabled()
	rt.feedsTainted = false
	if !rt.feedsOn {
		return
	}
	feeds := rt.feedBuf[:0]
	cells := int64(0)
	for _, w := range rt.worlds {
		f := w.RotateFeed()
		feeds = append(feeds, f)
		cells += int64(f.CellCount())
		if f.Tainted() {
			rt.feedsTainted = true
		}
	}
	rt.feedBuf = feeds
	rt.FeedCellTotal.Add(cells)
}

// reconcileGhosts updates every shard's ghost set against the desired
// border-band candidates. New ghosts ship their full row; existing
// ghosts re-ship only GhostFields, each under its replica consistency
// class (Coarse position updates ship when drift exceeds epsilon or the
// mirror grows stale).
//
// The refresh is incremental: it consumes the per-tick change feeds
// rotated here and evaluates only dirty (ghost, field) pairs plus the
// due-tick index (see dueAt). The full scan of every pair in the band
// produces the identical ship sequence (the equivalence test pins
// this) and is the fallback: a tainted window (a Restore replaced state
// wholesale) forces one full sweep before incremental resumes, and so
// do feeds being off or more than 64 shards.
func (rt *Runtime) reconcileGhosts(desired []map[entity.ID]ghostCandidate) (recStats, error) {
	n := rt.part.N()
	var st recStats
	feedsOn, tainted, feeds := rt.feedsOn, rt.feedsTainted, rt.feedBuf
	// mirrorMask routes dirty ids by bit index, so incremental collection
	// caps at 64 shards; beyond that the full scan takes over.
	useInc := !rt.fullScan && feedsOn && !tainted && n <= 64
	if useInc {
		rt.collectCandidates(feeds, desired, n)
	}
	for di := 0; di < n; di++ {
		if err := rt.sweepGone(di, desired[di], useInc); err != nil {
			return st, err
		}
		if useInc {
			if err := rt.refreshIncremental(di, desired[di], rt.candLists[di], &st); err != nil {
				return st, err
			}
			continue
		}
		// registerDue keeps the due index warm while a tainted window
		// forces full sweeps, so the switch back is seamless.
		if err := rt.refreshFull(di, desired[di], !rt.fullScan && feedsOn, &st); err != nil {
			return st, err
		}
		if rt.dueAt[di] != nil {
			delete(rt.dueAt[di], rt.tick)
		}
	}
	rt.GhostShipTotal.Add(int64(st.ships))
	rt.GhostSnapshotTotal.Add(int64(st.snaps))
	rt.GhostFieldSkipTotal.Add(int64(st.skips))
	return st, nil
}

// collectCandidates builds every shard's re-evaluation candidate list
// for this barrier, then appends each shard's due-this-tick ids. Two
// walks produce the same candidate set and the cheaper one runs each
// barrier: collectFromFeeds iterates the owners' dirty sets and routes
// each id through mirrorMask (O(dirty cells in spec'd columns)), while
// collectFromBand iterates the mirror bands and probes each id against
// its owner's dirty set (O(band × fields) map probes). Write-heavy
// crowds — every position dirty, band a sliver of the population —
// want the band walk; sparse write loads want the feed walk. Dirty
// sets are supersets (unchanged-value writes mark too) and a mirror
// host's own feed may mark last barrier's mirror snapshots — spurious
// candidates re-evaluate to the same declined verdict the full scan
// reaches, costing evaluation, never correctness. Lists come out in
// map-iteration order; refreshIncremental sorts before evaluating.
func (rt *Runtime) collectCandidates(feeds []*entity.ChangeFeed, desired []map[entity.ID]ghostCandidate, n int) {
	for di := 0; di < n; di++ {
		rt.candLists[di] = rt.candLists[di][:0]
	}
	dirtyCells := 0
	spawnedAny := false
	for _, f := range feeds {
		if f == nil {
			continue
		}
		for _, tc := range f.Tables() {
			if len(tc.Spawned) > 0 {
				spawnedAny = true
			}
			for fi := range rt.specs {
				dirtyCells += len(tc.Cols[rt.specs[fi].Name])
			}
		}
	}
	bandProbes := 0
	for di := 0; di < n; di++ {
		bandProbes += len(desired[di]) * (len(rt.specs) + 1)
	}
	if bandProbes < dirtyCells {
		rt.collectFromBand(feeds, desired, n, spawnedAny)
	} else {
		rt.collectFromFeeds(feeds, desired)
	}
	for di := 0; di < n; di++ {
		due, ok := rt.dueAt[di][rt.tick]
		if !ok {
			continue
		}
		bit := uint64(1) << uint(di)
		for _, id := range due {
			if rt.mirrorMask[id]&bit == 0 {
				continue
			}
			if _, still := desired[di][id]; !still {
				continue
			}
			rt.candLists[di] = append(rt.candLists[di], id)
		}
		delete(rt.dueAt[di], rt.tick)
	}
}

// collectFromFeeds walks the sealed feeds' dirty sets: each id an owner
// dirtied in a spec'd column routes via mirrorMask straight to the
// shards mirroring it. Ids no longer desired at a destination (their
// mirror expires this barrier) drop here rather than at eval.
func (rt *Runtime) collectFromFeeds(feeds []*entity.ChangeFeed, desired []map[entity.ID]ghostCandidate) {
	for ow, f := range feeds {
		if f == nil {
			continue
		}
		ownBit := uint64(1) << uint(ow)
		for _, tc := range f.Tables() {
			for fi := range rt.specs {
				for id := range tc.Cols[rt.specs[fi].Name] {
					// A shard never re-evaluates off its own feed: its
					// marks for id are mirror maintenance, not owner
					// writes.
					mask := rt.mirrorMask[id] &^ ownBit
					for di := 0; mask != 0; di++ {
						bit := uint64(1) << uint(di)
						if mask&bit != 0 {
							mask &^= bit
							if _, still := desired[di][id]; !still {
								continue
							}
							rt.candLists[di] = append(rt.candLists[di], id)
						}
					}
				}
			}
		}
	}
}

// collectFromBand walks each shard's desired band and probes every id
// against its owner's dirty set. A handed-off row's tick writes live in
// the OLD owner's feed — which the band walk never probes, since the
// band candidate names the new owner — so spawn marks (InsertRow marks
// Spawned, not columns) route through mirrorMask first, exactly as the
// feed walk routes dirty columns. Spawn routing can list an id the
// band walk also hits; the eval-side adjacent-duplicate skip absorbs
// it.
func (rt *Runtime) collectFromBand(feeds []*entity.ChangeFeed, desired []map[entity.ID]ghostCandidate, n int, spawned bool) {
	if spawned {
		for ow, f := range feeds {
			if f == nil {
				continue
			}
			ownBit := uint64(1) << uint(ow)
			for _, tc := range f.Tables() {
				for _, id := range tc.Spawned {
					mask := rt.mirrorMask[id] &^ ownBit
					for di := 0; mask != 0; di++ {
						bit := uint64(1) << uint(di)
						if mask&bit != 0 {
							mask &^= bit
							if _, still := desired[di][id]; !still {
								continue
							}
							rt.candLists[di] = append(rt.candLists[di], id)
						}
					}
				}
			}
		}
	}
	// Hoist the per-spec column sets once per (owner, table); the band
	// walk probes them per id. A linear scan over the handful of
	// distinct pairs a band touches beats a map keyed on the table
	// pointer.
	cols := rt.colBuf[:0]
	for di := 0; di < n; di++ {
		for id, cand := range desired[di] {
			if cand.owner < 0 || cand.owner >= len(feeds) || cand.owner == di {
				continue
			}
			var cs []map[entity.ID]struct{}
			found := false
			for ci := range cols {
				if cols[ci].owner == cand.owner && cols[ci].table == cand.table {
					cs = cols[ci].cs
					found = true
					break
				}
			}
			if !found {
				f := feeds[cand.owner]
				if f != nil {
					if tc := f.Table(cand.table); tc != nil {
						cs = make([]map[entity.ID]struct{}, 0, len(rt.specs))
						for fi := range rt.specs {
							cs = append(cs, tc.Cols[rt.specs[fi].Name])
						}
					}
				}
				cols = append(cols, colRes{owner: cand.owner, table: cand.table, cs: cs})
			}
			hit := false
			for fi := range cs {
				if _, dirty := cs[fi][id]; dirty {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			rt.candLists[di] = append(rt.candLists[di], id)
		}
	}
	rt.colBuf = cols[:0]
}

// sweepGone expires shard di's mirrors that left the band (or whose
// owner despawned). It sweeps the world's ghost set as well as the
// recs: a snapshot Restore can resurrect mirror rows this runtime has
// no rec for. trustRecs skips that world sweep when the caller can
// prove the world's ghost set equals the recs — on a non-tainted
// incremental barrier every resurrection path taints the window, so
// world ghosts ⊆ recs, and matching counts mean matching sets.
func (rt *Runtime) sweepGone(di int, desired map[entity.ID]ghostCandidate, trustRecs bool) error {
	dst := rt.worlds[di]
	recs := rt.ghostRecs[di]
	for id := range recs {
		if _, still := desired[id]; !still {
			rt.goneSet[id] = true
		}
	}
	ghosts := rt.goneBuf[:0]
	if !trustRecs || dst.GhostCount() != len(recs) {
		ghosts = dst.AppendGhostIDs(ghosts)
		for _, id := range ghosts {
			if _, still := desired[id]; !still {
				rt.goneSet[id] = true
			}
		}
	}
	gone := ghosts[:0]
	for id := range rt.goneSet {
		gone = append(gone, id)
	}
	slices.Sort(gone)
	rt.goneBuf = gone
	clear(rt.goneSet)
	for _, id := range gone {
		if dst.IsGhost(id) {
			if err := dst.Despawn(id); err != nil {
				return err
			}
		}
		delete(recs, id)
		if di < 64 {
			if m := rt.mirrorMask[id] &^ (1 << uint(di)); m == 0 {
				delete(rt.mirrorMask, id)
			} else {
				rt.mirrorMask[id] = m
			}
		}
	}
	return nil
}

// snapshotGhost materializes one new mirror on dst: drop any orphan row
// (a Restore can resurrect mirrors without our bookkeeping), insert the
// owner's full row, mark + route it, and record last-shipped values.
func (rt *Runtime) snapshotGhost(di int, id entity.ID, cand ghostCandidate) error {
	dst := rt.worlds[di]
	src := rt.worlds[cand.owner]
	t, _ := src.Table(cand.table)
	if dst.IsGhost(id) {
		if err := dst.Despawn(id); err != nil {
			return err
		}
	}
	row, err := t.AppendRow(id, rt.rowBuf[:0])
	rt.rowBuf = row
	if err != nil {
		return err
	}
	if err := dst.InsertRow(id, cand.table, row); err != nil {
		return err
	}
	dst.SetGhost(id, true)
	rec := rt.newGhostRec(t, row)
	rec.route = replica.Route{Owner: cand.owner}
	dst.SetGhostRoute(id, cand.owner)
	rt.ghostRecs[di][id] = rec
	if di < 64 {
		rt.mirrorMask[id] |= 1 << uint(di)
	}
	return nil
}

// fieldShip evaluates one (ghost, field) pair against the owner's
// current raw value: ship now, become due at a future tick (declined
// but diverged for a purely time-driven reason), or skip (the value
// kind supports no drift metric). Numeric fields compare as float but
// ship the raw value, preserving the column's native kind (int hp
// mirrors as int); non-numeric fields ship under Exact by equality,
// while non-numeric Coarse/Cosmetic report skip — there is no epsilon
// or staleness metric over strings and bools.
func (rt *Runtime) fieldShip(fi int, numeric bool, rec *ghostRec, raw entity.Value) (ship bool, due int64, hasDue bool, skip bool) {
	return fieldShipEval(rt.specs[fi], rt.tick, fi, numeric, rec, raw)
}

// fieldShipEval is the ship-policy core, shared verbatim by the
// in-process Runtime and the wire Peer — one implementation is what
// keeps their ship sequences (and therefore hashes) identical.
func fieldShipEval(spec replica.FieldSpec, tick int64, fi int, numeric bool, rec *ghostRec, raw entity.Value) (ship bool, due int64, hasDue bool, skip bool) {
	if numeric {
		cur, _ := raw.AsFloat()
		if spec.ShouldShip(cur, rec.sent[fi], tick, rec.sentTick[fi]) {
			return true, 0, false, false
		}
		if cur != rec.sent[fi] {
			if d, ok := spec.NextDue(tick, rec.sentTick[fi]); ok {
				return false, d, true, false
			}
		}
		return false, 0, false, false
	}
	if spec.Class == replica.Exact {
		return raw != rec.sentVal[fi], 0, false, false
	}
	return false, 0, false, true
}

// markShipped updates a rec's last-shipped bookkeeping for field fi.
func (rt *Runtime) markShipped(rec *ghostRec, fi int, numeric bool, raw entity.Value) {
	markShippedRec(rec, fi, numeric, raw, rt.tick)
}

// markShippedRec is the Runtime/Peer-shared bookkeeping core.
func markShippedRec(rec *ghostRec, fi int, numeric bool, raw entity.Value, tick int64) {
	if numeric {
		rec.sent[fi], _ = raw.AsFloat()
	} else {
		rec.sentVal[fi] = raw
	}
	rec.sentTick[fi] = tick
}

// registerDue queues id for re-evaluation on shard di at a future tick.
func (rt *Runtime) registerDue(di int, tick int64, id entity.ID) {
	m := rt.dueAt[di]
	if m == nil {
		m = make(map[int64][]entity.ID)
		rt.dueAt[di] = m
	}
	m[tick] = append(m[tick], id)
}

// refreshFull is the O(band × fields) refresh: create or re-evaluate
// every desired mirror in id order. Per-spec column resolution is
// hoisted to the specInfo cache and the id scratch is reused across
// shards; ships still go
// through per-row World.Set (preserving change-notification semantics
// for feed consumers watching mirror writes).
func (rt *Runtime) refreshFull(di int, desired map[entity.ID]ghostCandidate, registerDue bool, st *recStats) error {
	dst := rt.worlds[di]
	recs := rt.ghostRecs[di]
	ids := rt.idsBuf[:0]
	for id := range desired {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rt.idsBuf = ids
	for _, id := range ids {
		cand := desired[id]
		src := rt.worlds[cand.owner]
		t, _ := src.Table(cand.table)
		rec, known := recs[id]
		// A known rec whose row is gone means something on the hosting
		// shard despawned the mirror (scripts can despawn any id Nearby
		// returns). The mirror is derived state, so self-heal by
		// re-snapshotting instead of wedging the barrier on a Set
		// against a missing row.
		if known && !dst.IsGhost(id) {
			delete(recs, id)
			known = false
		}
		if !known {
			if err := rt.snapshotGhost(di, id, cand); err != nil {
				return err
			}
			st.snaps++
			continue
		}
		// Refresh the owner route every barrier, unconditionally: it is
		// cheap, handoff can move ownership, and a snapshot Restore
		// wipes the world-side route map without touching our recs.
		rec.route = replica.Route{Owner: cand.owner}
		dst.SetGhostRoute(id, cand.owner)
		si := rt.specInfo(t)
		r, okR := t.RowIndex(id)
		if !okR {
			continue
		}
		for fi := range rt.specs {
			sc := si.cols[fi]
			if !rec.present[fi] || !sc.present {
				continue
			}
			raw := t.ValueAt(sc.ci, r)
			ship, due, hasDue, skip := rt.fieldShip(fi, sc.numeric, rec, raw)
			if skip {
				st.skips++
				continue
			}
			if hasDue {
				if registerDue {
					rt.registerDue(di, due, id)
				}
				continue
			}
			if !ship {
				continue
			}
			if err := dst.Set(id, rt.specs[fi].Name, raw); err != nil {
				return err
			}
			rt.markShipped(rec, fi, sc.numeric, raw)
			st.ships++
			if rt.onShip != nil {
				rt.onShip(di, id, fi)
			}
		}
	}
	return nil
}

// refreshIncremental is the dirty-set driven refresh. One pass over the
// desired map handles the per-barrier obligations that cannot be
// event-driven (route refresh, self-heal detection, new-mirror
// discovery); field evaluation then touches only the candidate set —
// ids some owner feed dirtied in a spec'd column, plus ids due this
// tick (prebuilt by collectCandidates) — instead of the whole band.
// Ships accumulate into per-(table, field) batches applied columnar,
// with one spatial reindex per position batch; candidates evaluate in
// sorted id order and fields in spec order, so the ship sequence is
// bit-identical to refreshFull's.
func (rt *Runtime) refreshIncremental(di int, desired map[entity.ID]ghostCandidate, cands []entity.ID, st *recStats) error {
	dst := rt.worlds[di]
	recs := rt.ghostRecs[di]
	// After sweepGone, recs ⊆ desired, so the per-barrier desired walk
	// has work only when mirrors are missing (len differs ⇒ new ids), a
	// script despawned a mirror row out from under its rec (world ghost
	// count diverges from recs ⇒ self-heal), or a handoff moved
	// ownership (routeDirty ⇒ route refresh). Quiet barriers skip the
	// walk entirely.
	healNeeded := dst.GhostCount() != len(recs)
	if healNeeded || rt.routeDirty || len(desired) != len(recs) {
		newIDs := rt.idsBuf[:0]
		for id, cand := range desired {
			rec, known := recs[id]
			if known && healNeeded && !dst.IsGhost(id) {
				delete(recs, id)
				known = false
			}
			if !known {
				newIDs = append(newIDs, id)
				continue
			}
			// Route refresh only on ownership change: handoff flips the
			// rec's recorded owner, and the one case that silently desyncs
			// the world-side route map from the recs — a snapshot Restore
			// wiping it — taints the window, forcing the full sweep whose
			// unconditional refresh repairs every route.
			if rec.route.Owner != cand.owner {
				rec.route = replica.Route{Owner: cand.owner}
				dst.SetGhostRoute(id, cand.owner)
			}
		}
		slices.Sort(newIDs)
		rt.idsBuf = newIDs
		for _, id := range newIDs {
			if err := rt.snapshotGhost(di, id, desired[id]); err != nil {
				return err
			}
			st.snaps++
		}
	}
	slices.Sort(cands)

	res := rt.resBuf[:0]
	ships := rt.shipBuf[:0]
	for i, id := range cands {
		// Collection may route one id twice (dirty in several columns, or
		// spawn-routed and band-probed); sorted order makes duplicates
		// adjacent, so one comparison dedupes.
		if i > 0 && cands[i-1] == id {
			continue
		}
		// Candidates were collected against this barrier's desired map
		// before the sweep: an id whose mirror just expired was deleted
		// from recs by sweepGone, and one whose mirror was created this
		// barrier has a fresh rec (sent == cur, nothing re-evaluates to a
		// ship).
		rec, known := recs[id]
		if !known {
			continue
		}
		cand, still := desired[id]
		if !still {
			continue
		}
		var rs *evalRes
		for k := range res {
			if res[k].owner == cand.owner && res[k].table == cand.table {
				rs = &res[k]
				break
			}
		}
		if rs == nil {
			var r evalRes
			r.owner, r.table = cand.owner, cand.table
			if t, ok := rt.worlds[cand.owner].Table(cand.table); ok {
				if dstT, ok := dst.Table(cand.table); ok {
					r.src, r.si, r.dstT = t, rt.specInfo(t), dstT
				}
			}
			res = append(res, r)
			rs = &res[len(res)-1]
		}
		if rs.src == nil {
			continue
		}
		r, okR := rs.src.RowIndex(id)
		if !okR {
			continue
		}
		for fi := range rt.specs {
			sc := rs.si.cols[fi]
			if !rec.present[fi] || !sc.present {
				continue
			}
			raw := rs.src.ValueAt(sc.ci, r)
			ship, due, hasDue, skip := rt.fieldShip(fi, sc.numeric, rec, raw)
			if skip {
				st.skips++
				continue
			}
			if hasDue {
				rt.registerDue(di, due, id)
				continue
			}
			if !ship {
				continue
			}
			b := shipBatchFor(&ships, rs.dstT, rt.specs[fi].Name, fi)
			b.ids = append(b.ids, id)
			b.vals = append(b.vals, raw)
			rt.markShipped(rec, fi, sc.numeric, raw)
			st.ships++
			if rt.onShip != nil {
				rt.onShip(di, id, fi)
			}
		}
	}
	rt.resBuf = res[:0]
	// Columnar flush: one SetColumnBatch per (table, field) group — the
	// ghost counterpart of the world's own apply path. Batch writes skip
	// change listeners; mirrors are derived state, so feed consumers
	// never want them.
	for i := range ships {
		b := &ships[i]
		if len(b.ids) == 0 {
			continue
		}
		var err error
		if _, b.rows, err = b.tab.SetColumnBatchRows(b.col, b.ids, b.vals, b.rows[:0]); err != nil {
			return err
		}
	}
	// One spatial reindex per position table: x and y ship for largely
	// the same ids, so merge their (sorted) batches instead of
	// grid-moving each ghost once per axis. The flush above already
	// resolved each id's mirror row, so the reindex reads rows directly.
	for i := range ships {
		b := &ships[i]
		if !b.pos || len(b.ids) == 0 {
			continue
		}
		cur := append(rt.posBuf[:0], b.ids...)
		curR := append(rt.posRowBuf[:0], b.rows...)
		spare, spareR := rt.posBuf2[:0], rt.posRowBuf2[:0]
		for j := i + 1; j < len(ships); j++ {
			c := &ships[j]
			if !c.pos || c.tab != b.tab || len(c.ids) == 0 {
				continue
			}
			c.pos = false
			spare, spareR = mergeSortedIDRows(spare[:0], spareR[:0], cur, curR, c.ids, c.rows)
			cur, spare = spare, cur
			curR, spareR = spareR, curR
		}
		dst.ReindexPositionsRows(b.tab, cur, curR)
		rt.posBuf, rt.posBuf2 = cur[:0], spare[:0]
		rt.posRowBuf, rt.posRowBuf2 = curR[:0], spareR[:0]
	}
	for i := range ships {
		ships[i].tab = nil
		ships[i].ids = ships[i].ids[:0]
		ships[i].vals = ships[i].vals[:0]
		ships[i].rows = ships[i].rows[:0]
	}
	rt.shipBuf = ships[:0]
	return nil
}

// mergeSortedIDRows merges two ascending id slices into dst, dropping
// duplicates, carrying each id's row index alongside (a duplicate id
// names the same mirror row, so either side's index works).
func mergeSortedIDRows(dst []entity.ID, dstR []int, a []entity.ID, aR []int, b []entity.ID, bR []int) ([]entity.ID, []int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			dstR = append(dstR, aR[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			dstR = append(dstR, bR[j])
			j++
		default:
			dst = append(dst, a[i])
			dstR = append(dstR, aR[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dstR = append(dstR, aR[i:]...)
	return append(dst, b[j:]...), append(dstR, bR[j:]...)
}

// shipBatchFor returns the ship group for (tab, fi), appending a new
// one in first-seen order (sorted-candidate order keeps it stable).
func shipBatchFor(bs *[]shipBatch, tab *entity.Table, col string, fi int) *shipBatch {
	b := *bs
	for i := range b {
		if b[i].tab == tab && b[i].fi == fi {
			return &b[i]
		}
	}
	if len(b) < cap(b) {
		b = b[:len(b)+1]
	} else {
		b = append(b, shipBatch{})
	}
	g := &b[len(b)-1]
	g.tab, g.col, g.fi = tab, col, fi
	xci, okX := tab.Schema().Col("x")
	yci, okY := tab.Schema().Col("y")
	g.pos = (col == "x" || col == "y") && okX && okY &&
		tab.Schema().ColAt(xci).Kind == entity.KindFloat &&
		tab.Schema().ColAt(yci).Kind == entity.KindFloat
	g.ids, g.vals = g.ids[:0], g.vals[:0]
	*bs = b
	return g
}

// specInfo returns the GhostField column resolution for t, rebuilding
// it when the table's schema pointer changed (migrations swap schemas;
// Restore swaps tables).
func (rt *Runtime) specInfo(t *entity.Table) *tableSpecInfo {
	return specInfoFor(rt.specInfos, rt.specs, t)
}

// specInfoFor is the Runtime/Peer-shared resolution core.
func specInfoFor(cache map[*entity.Table]*tableSpecInfo, specs []replica.FieldSpec, t *entity.Table) *tableSpecInfo {
	s := t.Schema()
	if si := cache[t]; si != nil && si.schema == s {
		return si
	}
	if len(cache) > 128 {
		clear(cache) // Restore churn: drop stale table pointers
	}
	si := &tableSpecInfo{schema: s, cols: make([]specCol, len(specs))}
	for fi, spec := range specs {
		ci, ok := s.Col(spec.Name)
		if !ok {
			continue
		}
		k := s.ColAt(ci).Kind
		si.cols[fi] = specCol{ci: ci, present: true, numeric: k == entity.KindInt || k == entity.KindFloat}
	}
	cache[t] = si
	return si
}

// newGhostRec snapshots the spec'd fields of a freshly mirrored entity
// from its just-read row (schema column order). Non-numeric fields are
// present too (their Exact class ships by equality); presence is
// schema-driven, not value-coercion-driven.
func (rt *Runtime) newGhostRec(t *entity.Table, row []entity.Value) *ghostRec {
	return newGhostRecFor(rt.specs, rt.specInfo(t), row, rt.tick)
}

// newGhostRecFor is the Runtime/Peer-shared snapshot-bookkeeping core.
func newGhostRecFor(specs []replica.FieldSpec, si *tableSpecInfo, row []entity.Value, tick int64) *ghostRec {
	rec := &ghostRec{
		sent:     make([]float64, len(specs)),
		sentVal:  make([]entity.Value, len(specs)),
		sentTick: make([]int64, len(specs)),
		present:  make([]bool, len(specs)),
	}
	for fi := range specs {
		sc := si.cols[fi]
		if !sc.present {
			continue
		}
		rec.present[fi] = true
		raw := row[sc.ci]
		if sc.numeric {
			rec.sent[fi], _ = raw.AsFloat()
		} else {
			rec.sentVal[fi] = raw
		}
		rec.sentTick[fi] = tick
	}
	return rec
}

// Hash returns a deterministic FNV-64a digest of the owned world state
// (every non-ghost row, globally sorted by entity id). The same seed
// yields the same hash on every run, and for state driven by per-entity
// physics and coordinator spawns the hash is also identical for any
// shard count — handoff preserves rows bit-exactly and ghosts are
// excluded as derived state. Cross-shard writes are first-class: a
// record targeting a ghost mirror forwards to its owner and merges
// deterministically at the barrier (exactly one tick late), so
// neighbor-writing behaviors stay shard-count-invariant too, provided
// the fields they *read* are mirrored exactly (replica.Exact
// GhostFields, GhostBand covering the interaction radius). Behaviors
// reading Coarse-mirrored fields still see the weakened view — the
// paper's "inconsistent, but very similar" tier, traded for bandwidth.
func (rt *Runtime) Hash() uint64 {
	var rows []hashRow
	for _, w := range rt.worlds {
		rows = appendOwnedRows(w, rows)
	}
	return hashRows(rows)
}

// hashRow is one owned row in the global digest: the unit Runtime.Hash
// collects in-process and the wire frameRows gather ships to peer 0.
type hashRow struct {
	id    entity.ID
	table string
	row   []entity.Value
}

// appendOwnedRows copies every non-ghost row of w onto rows.
func appendOwnedRows(w *world.World, rows []hashRow) []hashRow {
	for _, name := range w.TableNames() {
		t, _ := w.Table(name)
		t.Scan(func(id entity.ID, row []entity.Value) bool {
			if w.IsGhost(id) {
				return true
			}
			cp := make([]entity.Value, len(row))
			copy(cp, row)
			rows = append(rows, hashRow{id: id, table: name, row: cp})
			return true
		})
	}
	return rows
}

// hashRows sorts rows by (id, table) and folds them into the FNV-64a
// digest — the single hash algorithm every topology (one process or
// many) must agree on bit-for-bit.
func hashRows(rows []hashRow) uint64 {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].id != rows[j].id {
			return rows[i].id < rows[j].id
		}
		return rows[i].table < rows[j].table
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		h.Write([]byte(r.table))
		binary.LittleEndian.PutUint64(buf[:], uint64(r.id))
		h.Write(buf[:])
		for _, v := range r.row {
			hashValue(h, v, buf[:])
		}
	}
	return h.Sum64()
}

// hashValue folds one cell into the digest, bit-exactly for floats.
func hashValue(h interface{ Write([]byte) (int, error) }, v entity.Value, buf []byte) {
	buf[0] = byte(v.Kind())
	h.Write(buf[:1])
	switch v.Kind() {
	case entity.KindInt:
		binary.LittleEndian.PutUint64(buf, uint64(v.Int()))
		h.Write(buf[:8])
	case entity.KindFloat:
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v.Float()))
		h.Write(buf[:8])
	case entity.KindString:
		h.Write([]byte(v.Str()))
	case entity.KindBool:
		if v.Bool() {
			buf[0] = 1
		} else {
			buf[0] = 0
		}
		h.Write(buf[:1])
	}
}
