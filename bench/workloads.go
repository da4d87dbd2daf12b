package main

import (
	"math/rand"

	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
	"gamedb/internal/world"
)

// side is every crowd's square map edge (shardsim's and replicasim's
// default), so unit counts translate directly to densities.
const side = 2000.0

// workload is one seeded crowd under one fixed runtime configuration.
// The window is fixed in ticks, not in time: the same seed must produce
// the same per-tick work on every repetition.
type workload struct {
	name  string
	why   string
	units int
	// A repetition runs `lifetimes` fresh builds one after another, each
	// warmed up for `warmup` ticks and measured for `ticks` ticks, so it
	// yields lifetimes × ticks per-tick samples. Every workload but
	// fanout.border has one lifetime.
	warmup    int
	ticks     int
	lifetimes int
	// margin widens the map rectangle beyond the spawn square on every
	// side. shard.Runtime mirrors a unit only within GhostBand of a
	// region rectangle, and region rectangles end at the map edge, so a
	// unit that drifts off the map loses its ghosts and the 1×1 hash
	// equality with them; workloads whose units read or write their
	// neighbors get a margin no unit can cross inside the window.
	margin float64
	// cfg is the measured configuration (Seed, World and Tracer are
	// filled in by build); the 1×1 oracle runs the same cfg with
	// Shards and Workers forced to 1.
	cfg shard.Config
	// seedRuntime seeds an in-process runtime; seedCluster (border.tcp
	// only) seeds the identical spawn stream onto a TCP cluster.
	seedRuntime func(rt *shard.Runtime, units int, side float64, seed int64) error
	seedCluster func(cl *shard.Cluster, units int, side float64, seed int64) error
	// clients > 0 attaches FeedPump → replica.Hub → that many clients.
	clients int
}

var workloads = []workload{
	{
		name:  "mingle",
		why:   "read-heavy main path: compiled gslplan neighbor queries over spatial.Grid plus columnar apply; no triggers, barrier small; hash equals the 1x1 oracle",
		units: 8000, warmup: 20, ticks: 100, lifetimes: 1, margin: 2000,
		cfg: shard.Config{
			Shards: 4, GhostBand: 20, GhostFields: shard.MingleGhostFields(),
			CompileBehaviors: world.CompileOn,
		},
		seedRuntime: func(rt *shard.Runtime, units int, side float64, seed int64) error {
			return shard.SeedMingleCrowd(rt, units, side, seed, 30)
		},
	},
	{
		name:  "cascade",
		why:   "trigger drain dominates: interpreted conditions/actions over three cascade rounds per entity per tick; a gslplan-only change must show nothing here; hash equals the 1x1 oracle",
		units: 1000, warmup: 20, ticks: 100, lifetimes: 1,
		cfg: shard.Config{Shards: 4, GhostBand: 24},
		seedRuntime: func(rt *shard.Runtime, units int, side float64, seed int64) error {
			return shard.SeedCascadeCrowd(rt, units, side, seed, 30)
		},
	},
	{
		name:  "drift.rebalance",
		why:   "write-heavy: no behaviors, every row moves every tick, so apply, Grid.MoveBatch, handoff, rebalance and incremental reconcile at the in-process barrier dominate; hash equals the 1x1 oracle",
		units: 8000, warmup: 20, ticks: 200, lifetimes: 1,
		cfg: shard.Config{Shards: 8, GhostBand: 24, RebalanceEvery: 50},
		seedRuntime: func(rt *shard.Runtime, units int, side float64, seed int64) error {
			return shard.SeedDriftingCrowd(rt, units, side, seed, 40)
		},
	},
	{
		name:  "border.tcp",
		why:   "cross-shard writes under occ through the peer barrier: forward, remote-merge, re-runs, frame encode and loopback TCP round-trips between 4 peers; hash equals the 1x1 in-process oracle",
		units: 4000, warmup: 20, ticks: 100, lifetimes: 1, margin: 400,
		cfg: shard.Config{
			Shards: 4, GhostBand: 20, GhostFields: shard.BorderGhostFields(),
			ConflictPolicy: world.ConflictOCC,
		},
		seedRuntime: func(rt *shard.Runtime, units int, side float64, seed int64) error {
			return shard.SeedBorderCrowd(rt, units, side, seed, 6)
		},
		seedCluster: func(cl *shard.Cluster, units int, side float64, seed int64) error {
			return shard.SeedBorderCluster(cl, units, side, seed, 6)
		},
	},
	{
		name:  "fanout.border",
		why:   "write to client-visible bytes: feeds via FeedPump into replica.Hub (wire sizing, 10k clients); 3 hub lifetimes of 39 ticks, before Hub.dueAt growth; totals repeat to 0.1%, hash equals the 1x1 oracle",
		units: 2000, warmup: 5, ticks: 34, lifetimes: 3, margin: 400,
		cfg: shard.Config{
			Shards: 4, GhostBand: 24, GhostFields: shard.BorderGhostFields(),
			ChangeFeed: true,
		},
		seedRuntime: func(rt *shard.Runtime, units int, side float64, seed int64) error {
			return shard.SeedBorderCrowd(rt, units, side, seed, 6)
		},
		clients: 10000,
	},
}

// Client-crowd constants of fanout.border (replicasim's defaults).
const (
	clientAOI      = 64.0
	clientBudget   = 1500
	clientSlowFrac = 0.05
	clientDrift    = 0.02
	hubCell        = 32.0
)

// borderHubSpecs is replicasim's border field set: positions Coarse,
// hp Exact, kb Cosmetic.
func borderHubSpecs() []replica.FieldSpec {
	return []replica.FieldSpec{
		{Name: "x", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "y", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
		{Name: "hp", Class: replica.Exact},
		{Name: "kb", Class: replica.Cosmetic, Period: 4},
	}
}

// subject is one built workload instance: the grid under test plus the
// optional fan-out tail. Everything the host loop calls is a public
// function of internal/shard or internal/replica.
type subject struct {
	step      func() (shard.StepStats, error)
	hash      func() (uint64, error)
	wireStats func() wire.Stats // nil off the wire
	close     func()

	pump  *shard.FeedPump // nil without a hub
	hub   *replica.Hub
	conns []*replica.Conn
	crng  *rand.Rand // client-only stream: placement and drift
}

// moveClients drifts a fixed fraction of the clients' windows, as
// replicasim does between ticks.
func (s *subject) moveClients() {
	n := int(float64(len(s.conns)) * clientDrift)
	for d := 0; d < n; d++ {
		c := s.conns[s.crng.Intn(len(s.conns))]
		s.hub.MoveClient(c, spatial.Vec2{
			X: clampf(c.Focus.X+(s.crng.Float64()*2-1)*clientAOI, 0, side),
			Y: clampf(c.Focus.Y+(s.crng.Float64()*2-1)*clientAOI, 0, side),
		})
	}
}

func clampf(v, lo, hi float64) float64 {
	return max(lo, min(v, hi))
}

func (w *workload) config(seed int64, tr *obs.Tracer) shard.Config {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.Workers = 1
	cfg.World = spatial.NewRect(-w.margin, -w.margin, side+w.margin, side+w.margin)
	cfg.CellSize = 16
	cfg.TickDT = 0.5
	cfg.Tracer = tr
	return cfg
}

// build constructs, seeds and connects the measured configuration; the
// caller times it as set-up.
func (w *workload) build(seed int64, tr *obs.Tracer) (*subject, error) {
	cfg := w.config(seed, tr)
	if w.seedCluster != nil {
		cl, err := shard.NewTCPCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := w.seedCluster(cl, w.units, side, seed); err != nil {
			cl.Close()
			return nil, err
		}
		return &subject{
			step:      cl.Step,
			hash:      cl.Hash,
			wireStats: cl.WireStats,
			close:     func() { cl.Close() },
		}, nil
	}
	rt, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.seedRuntime(rt, w.units, side, seed); err != nil {
		return nil, err
	}
	s := &subject{
		step:  rt.Step,
		hash:  func() (uint64, error) { return rt.Hash(), nil },
		close: rt.Close,
	}
	if w.clients > 0 {
		s.hub = replica.NewHub(replica.HubConfig{
			Specs: borderHubSpecs(), Cell: hubCell,
			ByteBudget: clientBudget, WireSizing: true,
			MaxQueue: 1 << 30,
		})
		// Clients draw from their own stream so the world evolution
		// stays bit-identical to the hub-less oracle.
		s.crng = rand.New(rand.NewSource(seed * 7919))
		s.conns = make([]*replica.Conn, w.clients)
		for i := range s.conns {
			focus := spatial.Vec2{X: s.crng.Float64() * side, Y: s.crng.Float64() * side}
			budget := 0 // hub default
			if s.crng.Float64() < clientSlowFrac {
				budget = clientBudget / 8
			}
			s.conns[i] = s.hub.AddClient(i, focus, clientAOI, budget)
		}
		s.pump = shard.NewFeedPump(rt, s.hub)
		// Publish the seeded population, then connect the windows: the
		// first flush snapshots every client's covered cells.
		s.pump.Pump()
		s.hub.FlushTick()
	}
	return s, nil
}

// measured is the number of per-tick samples one repetition yields.
func (w *workload) measured() int { return w.ticks * w.lifetimes }

// oracleHash runs the same seeds and tick counts on one shard with one
// worker and no hub — the executable specification every measured
// configuration must hash-match — and folds the lifetimes' hashes as
// runRep does.
func (w *workload) oracleHash(seed int64) (uint64, error) {
	var h uint64
	for l := 0; l < w.lifetimes; l++ {
		ls := lifetimeSeed(seed, l)
		cfg := w.config(ls, nil)
		cfg.Shards = 1
		cfg.ChangeFeed = false
		rt, err := shard.New(cfg)
		if err != nil {
			return 0, err
		}
		if err := w.seedRuntime(rt, w.units, side, ls); err != nil {
			return 0, err
		}
		for i := 0; i < w.warmup+w.ticks; i++ {
			if _, err := rt.Step(); err != nil {
				return 0, err
			}
		}
		h = foldHash(h, rt.Hash())
		rt.Close()
	}
	return h, nil
}
