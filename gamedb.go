// Package gamedb is a game-state database engine: the systems described
// in "Database Research in Computer Games" (Demers, Gehrke, Koch, Sowell,
// White — SIGMOD 2009) built as one coherent Go library.
//
// The engine stores game state in typed component tables with secondary
// and spatial indexes, runs designer-authored content (XML packs with GSL
// behavior scripts and event triggers, optionally in the loop-free
// "restricted mode" studios use to bound script cost), processes
// interactions as set-at-a-time queries instead of Ω(n²) script loops,
// partitions load with causality bubbles, replicates state to clients
// under per-field consistency tiers, and checkpoints intelligently on
// important events rather than on a timer. The tick itself follows the
// paper's state-effect pattern: behaviors run as read-only queries over
// the frozen tick-start state on Options.Workers goroutines, emitting
// typed effects that merge and apply deterministically — the same seed
// produces the same world at any parallelism.
//
// There is one engine. It partitions the map into Options.Shards region
// shards (default 1) that tick as lockstep peers; the tick barrier hands
// entities across region borders and mirrors border bands as read-only
// ghosts, so the world hash is identical for every shard count. Setting
// Options.ReplicaFields feeds every tick's changes to the engine's
// client fan-out hub (Engine.Hub), and Options.Checkpoint snapshots
// every shard at a barrier.
//
// Quick start:
//
//	eng, err := gamedb.New(gamedb.Options{Seed: 42})
//	if err != nil { ... }
//	if err := eng.LoadPackXML(packFile); err != nil { ... }
//	for i := 0; i < 1000; i++ {
//	    if _, err := eng.Tick(); err != nil { ... }
//	}
//
// See examples/ for runnable scenarios and cmd/gamebench for the full
// experiment suite.
package gamedb

import (
	"gamedb/internal/core"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/persist"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// Engine is a running game world; see core.Engine for method docs.
type Engine = core.Engine

// Options configures New.
type Options = core.Options

// ShardStepStats summarizes one Engine.Tick across its shards
// (handoffs, ghost traffic, parallel/barrier wall time, and each shard
// world's TickStats).
type ShardStepStats = shard.StepStats

// Rect is an axis-aligned world-space rectangle (shard regions, the
// world bounds in Options.World).
type Rect = spatial.Rect

// NewRect builds a rectangle from extreme coordinates.
func NewRect(x0, y0, x1, y1 float64) Rect { return spatial.NewRect(x0, y0, x1, y1) }

// World is the tick-based simulation a shard runs (Engine.ShardWorld).
type World = world.World

// TickStats summarizes one shard world's tick.
type TickStats = world.TickStats

// Vec2 is a world-space point or vector.
type Vec2 = spatial.Vec2

// ID identifies an entity.
type ID = entity.ID

// Value is a dynamically typed table cell.
type Value = entity.Value

// Value constructors.
var (
	Int   = entity.Int
	Float = entity.Float
	Str   = entity.Str
	Bool  = entity.Bool
)

// FieldSpec configures one replicated field; Exact, Coarse and Cosmetic
// are its consistency classes.
type FieldSpec = replica.FieldSpec

// Consistency classes for FieldSpec.
const (
	Exact    = replica.Exact
	Coarse   = replica.Coarse
	Cosmetic = replica.Cosmetic
)

// Checkpoint policies for Options.Checkpoint.
type (
	// Periodic checkpoints on a fixed tick interval.
	Periodic = persist.Periodic
	// EventKeyed checkpoints on important events (intelligent
	// checkpointing).
	EventKeyed = persist.EventKeyed
)

// Tracer records span-based tick traces for Options.Tracer; export with
// WriteChromeTrace or WriteSlowestTimeline. Profiler attributes script
// time, fuel, effects, reads, conflicts, retries and aborts per behavior
// / trigger rule for Options.Profile. Both are inert with respect to
// world state (the grid tests pin it).
type (
	Tracer   = obs.Tracer
	Profiler = obs.Profiler
)

// Observability constructors: a span tracer (spanCap spans retained
// per shard; <= 0 selects DefaultSpanCap), a profiler, and the
// /metrics + pprof HTTP rig the sims serve (operators only: bind a
// trusted interface).
var (
	NewTracer   = obs.NewTracer
	NewProfiler = obs.NewProfiler
	NewServeMux = obs.NewServeMux
	Serve       = obs.Serve
)

// DefaultSpanCap is the per-shard span-ring capacity the sims use.
const DefaultSpanCap = obs.DefaultSpanCap

// New builds an engine: opts.Shards region shards (default 1) over
// opts.World (required for more than one), each an independent world
// ticked in parallel on the shared worker pool; a tick barrier migrates
// entities that cross region boundaries and mirrors border-band
// neighbors as read-only ghosts so boundary-straddling queries stay
// correct.
func New(opts Options) (*Engine, error) { return core.New(opts) }
