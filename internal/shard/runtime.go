package shard

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/sched"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
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
	// Pool is the worker pool every shard world's tick-parallel phases
	// run on. Nil means the process-wide sched.Shared() pool, so
	// Shards × Workers shares GOMAXPROCS goroutines instead of spawning
	// Shards × Workers of its own.
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
	// on their compiled plans; the field is still declared only because
	// bench/workloads.go assigns it (ROADMAP 1(g) deletes both together).
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
	// ChangeFeed is inert: nothing reads it. FeedPump reads the rows
	// the shards own; the field is still declared only because
	// bench/workloads.go assigns it (ROADMAP 1(g) deletes both together).
	ChangeFeed bool

	// Tracer records span-based tick traces (nil = tracing off): each
	// shard gets its own span track (keyed by shard index) carrying its
	// world's query / apply / trigger rounds / OCC retries and its
	// peer's parallel-phase and barrier spans. Tracing never touches
	// world state, so traced runs keep the Shards × Workers hash
	// invariance.
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
	// BarrierNS the wall time of the barrier rounds; ReconcileNS the
	// handoff/ghost round inside BarrierNS. A cluster reports each as
	// its slowest peer's.
	ParallelNS  int64
	BarrierNS   int64
	ReconcileNS int64
	// GhostFieldSkips counts (ghost, field) evaluations this barrier
	// declined because the field's value kind supports no drift metric
	// (non-numeric Coarse/Cosmetic). Non-numeric Exact fields DO ship
	// (by equality), so a nonzero count flags a spec/schema mismatch
	// worth fixing rather than silent data loss.
	GhostFieldSkips int
	// WireBytesOut/WireBytesIn/WireFrames count tick-barrier transport
	// traffic.
	WireBytesOut int64
	WireBytesIn  int64
	WireFrames   int64
}

// withDefaults normalizes a Config. Every peer applies it, so a config
// handed to n peer processes means the same thing it means in-process.
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

// newShardWorld builds shard i's world of an n-shard grid.
func newShardWorld(cfg Config, i, n int, pool *sched.Pool) *world.World {
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
	})
	// Script-driven spawns allocate from disjoint residue classes so
	// ids never collide across shards (or with coordinator ids).
	w.SetIDAllocator(scriptIDBase+entity.ID(i+1), uint64(n))
	w.SetShardIndex(i)
	return w
}

// Runtime is the in-process sharded runtime: a Cluster of cfg.Shards
// peers over the in-process pipe mesh, so it runs the one barrier every
// other topology runs. It adds only the two signatures bench/ was
// written against — Hash without an error and Close without one — and
// the next benchmark refresh (ROADMAP 1(g)) folds it into Cluster.
type Runtime struct{ *Cluster }

// New builds an in-process sharded runtime.
func New(cfg Config) (*Runtime, error) {
	cfg = withDefaults(cfg)
	pipes := wire.NewPipeGroup(cfg.Shards)
	trs := make([]wire.Transport, len(pipes))
	for i, p := range pipes {
		trs[i] = p
	}
	cl, err := newCluster(cfg, trs)
	if err != nil {
		return nil, err
	}
	return &Runtime{cl}, nil
}

// Hash returns a deterministic FNV-64a digest of the owned world state
// (every non-ghost row, globally sorted by entity id), read straight
// from the in-process shard worlds. The same seed yields the same hash
// on every run, and for state driven by per-entity physics and
// coordinator spawns the hash is also identical for any shard count —
// handoff preserves rows bit-exactly and ghosts are excluded as derived
// state. Cross-shard writes are first-class: a record targeting a ghost
// mirror forwards to its owner and merges deterministically at the
// barrier (exactly one tick late), so neighbor-writing behaviors stay
// shard-count-invariant too, provided the fields they *read* are
// mirrored exactly (replica.Exact GhostFields, GhostBand covering the
// interaction radius). Behaviors reading Coarse-mirrored fields still
// see the weakened view — the paper's "inconsistent, but very similar"
// tier, traded for bandwidth.
func (rt *Runtime) Hash() uint64 {
	var rows []hashRow
	for _, p := range rt.peers {
		rows = appendOwnedRows(p.w, rows)
	}
	return hashRows(rows)
}

// Close stops the cluster's peer goroutines and tears the mesh down.
func (rt *Runtime) Close() { rt.Cluster.Close() }

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
