package shard

import (
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/obs"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// The grid harness: one registry crowd swept across Shards × Workers ×
// policy × transport × observability rig. Every cell seeds the crowd
// the same way, checks every shard world's invariants after every tick,
// and records its hash after every tick; each cell's trajectory must be
// its reference cell's, tick for tick, and each reference must be the
// recorded golden where the row has one. The grid tests below are rows.

// gridAxes are the dimensions a row sweeps. A list left empty holds only
// the zero policy, the in-process transport or the rig off.
type gridAxes struct {
	shards, workers      []int
	policies, transports []string
	obs                  []bool
}

// gridRow is one crowd swept across a grid.
type gridRow struct {
	sc    *Scenario
	crowd Crowd
	// cfg is every cell's config; Shards, Workers, ConflictPolicy and the
	// rig are the cell's own.
	cfg Config
	// exact runs the crowd under sc.Configure's shard-count-exact
	// mirrors. A crowd that reads neighbours through default Coarse
	// mirrors instead depends on whether there are mirrors at all, so its
	// cells are held to the reference at their own shard count.
	exact bool
	ticks int
	gridAxes
	// golden returns the reference trajectory recorded at a shard count:
	// the hash after the last tick and an FNV-style fold of every tick's.
	golden func(shards int) (final, fold uint64)
	// effects and fired are recorded run totals every cell reproduces (0
	// = none recorded).
	effects, fired int
	// handoffs and forwards: multi-shard cells must hand units across
	// region boundaries, and forward effects to their owners.
	handoffs, forwards bool
}

// over returns the row swept across axes.
func (r gridRow) over(a gridAxes) gridRow {
	r.gridAxes = a
	return r
}

// gridCell is one point of a grid.
type gridCell struct {
	shards, workers   int
	policy, transport string
	obs               bool
}

func (c gridCell) String() string {
	s := fmt.Sprintf("shards=%d workers=%d policy=%q %s", c.shards, c.workers, c.policy, c.transport)
	if c.obs {
		s += " +obs"
	}
	return s
}

// cells enumerates the row's grid. A row's first cell takes every axis's
// first value and is its reference (per shard count for a Coarse-mirror
// crowd); the first cell at each (shards, workers, policy) is the twin
// its other transports and rig settings are held to.
func (r gridRow) cells() []gridCell {
	policies, transports, rigs := r.policies, r.transports, r.obs
	if len(policies) == 0 {
		policies = []string{""}
	}
	if len(transports) == 0 {
		transports = []string{"inprocess"}
	}
	if len(rigs) == 0 {
		rigs = []bool{false}
	}
	var out []gridCell
	for _, p := range policies {
		for _, s := range r.shards {
			for _, w := range r.workers {
				for _, tr := range transports {
					for _, o := range rigs {
						out = append(out, gridCell{shards: s, workers: w, policy: p, transport: tr, obs: o})
					}
				}
			}
		}
	}
	return out
}

// cellTotals are a run's logical counters. Neither the transport nor an
// attached rig may move any of them.
type cellTotals struct {
	effects, fired, calls, compiled         int
	handoffs, forwarded, merged, ghostSnaps int64
}

// cellRun is what one cell's run leaves: its hash after every tick and
// its run totals.
type cellRun struct {
	hashes []uint64
	totals cellTotals
}

// runGrid runs every cell of the row and fails at the first cell that
// breaks a check, naming the scenario, the cell and, for a hash, the
// first tick it left its reference's trajectory.
func runGrid(t *testing.T, row gridRow) {
	t.Helper()
	type ref struct {
		cell   gridCell
		hashes []uint64
	}
	refs := map[int]ref{}
	twins := map[gridCell]cellTotals{}
	for _, cell := range row.cells() {
		run := runCell(t, row, cell)
		key := 0
		if row.sc.GhostFields != nil && !row.exact {
			key = cell.shards
		}
		if r, ok := refs[key]; !ok {
			refs[key] = ref{cell, run.hashes}
			if row.golden != nil {
				final, fold := row.golden(cell.shards)
				if got := trajectoryFold(run.hashes); run.hashes[len(run.hashes)-1] != final || got != fold {
					t.Fatalf("%s %s: trajectory left the recorded one: final %#x fold %#x, want %#x %#x",
						row.sc.Name, cell, run.hashes[len(run.hashes)-1], got, final, fold)
				}
			}
		} else if err := divergence(row.sc.Name, r.cell, cell, r.hashes, run.hashes); err != nil {
			t.Fatal(err)
		}
		twin := gridCell{shards: cell.shards, workers: cell.workers, policy: cell.policy}
		if want, ok := twins[twin]; !ok {
			twins[twin] = run.totals
		} else if run.totals != want {
			t.Fatalf("%s %s: run totals %+v, its twin's %+v", row.sc.Name, cell, run.totals, want)
		}
	}
}

// trajectoryFold is the goldens' FNV-style fold of per-tick hashes.
func trajectoryFold(hashes []uint64) uint64 {
	fold := uint64(14695981039346656037)
	for _, h := range hashes {
		fold = (fold ^ h) * 1099511628211
	}
	return fold
}

// divergence reports the first tick at which cell's hash trajectory
// leaves its reference's, or nil when the two agree.
func divergence(scenario string, ref, cell gridCell, want, got []uint64) error {
	for i := range want {
		if i >= len(got) {
			return fmt.Errorf("%s %s: trajectory ended after tick %d, %s's ran %d ticks", scenario, cell, len(got), ref, len(want))
		}
		if got[i] != want[i] {
			return fmt.Errorf("%s %s: hash left %s's trajectory at tick %d: %016x, want %016x",
				scenario, cell, ref, i+1, got[i], want[i])
		}
	}
	return nil
}

// runCell seeds the row's crowd into the cell's grid, runs it and checks
// what every cell must hold: no failed invocation, every behavior call
// on its plan, the shard worlds' invariants after every tick, the
// population kept, the recorded totals, forwarded effects all merged,
// and on a multi-shard grid ghosts, barrier traffic in StepStats and
// socket bytes over TCP, plus the row's handoffs and forwards.
func runCell(t *testing.T, row gridRow, cell gridCell) cellRun {
	t.Helper()
	cfg := row.cfg
	if row.exact {
		cfg = row.sc.Configure(cfg)
	}
	cfg.Shards, cfg.Workers, cfg.ConflictPolicy = cell.shards, cell.workers, cell.policy
	var tracer *obs.Tracer
	var prof *obs.Profiler
	if cell.obs {
		tracer, prof = obs.NewTracer(obs.DefaultSpanCap), obs.NewProfiler()
		cfg.Tracer, cfg.Profile = tracer, prof
	}
	name := row.sc.Name + " " + cell.String()
	cl, hash := newGrid(t, cfg, cell.transport)
	defer cl.Close()
	if err := row.sc.Seed(cl, row.crowd); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seeded := cl.Entities()
	var run cellRun
	var last StepStats
	for i := 0; i < row.ticks; i++ {
		st, err := cl.Step()
		if err != nil {
			t.Fatalf("%s tick %d: %v", name, i+1, err)
		}
		for _, ws := range st.Shards {
			run.totals.effects += ws.Effects
			run.totals.fired += ws.TriggerFired
			run.totals.calls += ws.ScriptCalls
			run.totals.compiled += ws.CompiledCalls
			if ws.ScriptErrors+ws.ScriptSkips+ws.TriggerErrors+ws.TriggerSkips > 0 {
				t.Fatalf("%s tick %d: failed invocations", name, st.Tick)
			}
		}
		checkWorlds(t, cl, fmt.Sprintf("%s tick %d", name, st.Tick))
		run.hashes = append(run.hashes, hash())
		last = st
	}
	tot := &run.totals
	tot.handoffs, tot.forwarded = cl.HandoffTotal.Load(), cl.ForwardTotal.Load()
	tot.merged, tot.ghostSnaps = cl.RemoteMergeTotal.Load(), cl.GhostSnapshotTotal.Load()
	switch {
	case tot.compiled != tot.calls:
		t.Fatalf("%s: %d of %d behavior calls completed on a plan", name, tot.compiled, tot.calls)
	case row.effects != 0 && tot.effects != row.effects, row.fired != 0 && tot.fired != row.fired:
		t.Fatalf("%s: %d effects %d activations, recorded %d and %d", name, tot.effects, tot.fired, row.effects, row.fired)
	case last.Entities != seeded:
		t.Fatalf("%s: %d entities after the run, %d seeded", name, last.Entities, seeded)
	case tot.merged != tot.forwarded:
		t.Fatalf("%s: forwarded %d records but merged %d", name, tot.forwarded, tot.merged)
	}
	if cell.shards > 1 {
		switch {
		case tot.ghostSnaps == 0:
			t.Fatalf("%s: no ghosts materialized", name)
		case last.WireFrames == 0 || last.WireBytesOut == 0 || last.WireBytesIn == 0:
			t.Fatalf("%s: no wire traffic recorded in StepStats: %+v", name, last)
		case cell.transport == "tcp" && (cl.WireStats().BytesOut == 0 || cl.WireStats().BytesIn == 0):
			t.Fatalf("%s: tcp cluster moved no bytes: %+v", name, cl.WireStats())
		case row.handoffs && tot.handoffs == 0:
			t.Fatalf("%s: no handoffs — crowd not crossing boundaries", name)
		case row.forwards && tot.forwarded == 0:
			t.Fatalf("%s: no effects forwarded — crowd not writing across borders", name)
		}
	}
	if cell.obs {
		assertObsRecorded(t, cell.shards, tracer, prof, row.fired > 0)
	}
	return run
}

// shardWorlds is what Runtime and Cluster share for invariant checks.
type shardWorlds interface {
	Shards() int
	ShardWorld(i int) *world.World
}

// checkWorlds runs every shard world's invariant checker (the entity
// directory's: rows, grid slots, ghost marks and routes, behaviors).
func checkWorlds(t *testing.T, sw shardWorlds, when string) {
	t.Helper()
	for i := 0; i < sw.Shards(); i++ {
		if err := sw.ShardWorld(i).Check(); err != nil {
			t.Fatalf("%s, shard %d: %v", when, i, err)
		}
	}
}

// newGrid builds cfg's grid on the named transport — "inprocess" (New's
// pipe mesh) or "tcp" (NewTCPCluster) — closed at test end, plus the
// hash it reports: Runtime.Hash in-process, the lockstep frame gather
// over TCP.
func newGrid(t *testing.T, cfg Config, transport string) (*Cluster, func() uint64) {
	t.Helper()
	if transport == "tcp" {
		cl, err := NewTCPCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl, func() uint64 {
			t.Helper()
			h, err := cl.Hash()
			if err != nil {
				t.Fatalf("tcp hash: %v", err)
			}
			return h
		}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt.Cluster, rt.Hash
}

// The crowds the goldens were recorded on (golden_test.go,
// trigger_plan_test.go).
var (
	goldenMingle = gridRow{
		sc: mingleScenario, crowd: Crowd{Units: 250, Side: 400, Seed: 77}, ticks: 25,
		cfg:    Config{Seed: 7, World: spatial.NewRect(0, 0, 400, 400), TickDT: 0.5, GhostBand: 25, ScriptFuel: 1 << 20},
		golden: mingleGolden, effects: mingleGoldenEffects, handoffs: true,
	}
	goldenCascade = gridRow{
		sc: cascadeScenario, crowd: Crowd{Units: 200, Side: 1000, Seed: 77}, ticks: 40,
		cfg:     Config{Seed: 7, World: spatial.NewRect(0, 0, 1000, 1000), TickDT: 0.5, GhostBand: 25},
		golden:  func(int) (uint64, uint64) { return cascadeGoldenFinal, cascadeGoldenFold },
		effects: cascadeGoldenEffects, fired: cascadeGoldenFired, handoffs: true,
	}
	goldenBorder = gridRow{
		sc: borderScenario, crowd: Crowd{Units: 240, Side: 400, Seed: 77}, ticks: 20, exact: true,
		cfg:      Config{Seed: 7, World: spatial.NewRect(0, 0, 400, 400), TickDT: 0.5, GhostBand: 20},
		golden:   func(int) (uint64, uint64) { return borderGoldenFinal, borderGoldenFold },
		forwards: true,
	}
	// clusterBorder is the faster border crowd the cluster races run.
	clusterBorder = gridRow{
		sc: borderScenario, crowd: Crowd{Units: 200, Side: 400, Seed: 99, Speed: 25}, ticks: 12, exact: true,
		cfg:      Config{Seed: 7, World: spatial.NewRect(0, 0, 400, 400), TickDT: 0.5, GhostBand: 20, ScriptFuel: 1 << 20},
		forwards: true,
	}
)

var (
	bothPolicies   = []string{world.ConflictLastWrite, world.ConflictOCC}
	bothTransports = []string{"inprocess", "tcp"}
)

// TestLegacyGoldensAcrossGrid holds the one pipeline to the hashes the
// deleted modes produced, at every grid cell: Shards × Workers × policy
// × transport, the barrier's frames crossing the in-process pipe mesh
// or real loopback sockets. All three crowds' behaviors are fully
// compilable, so every behavior call must also have completed on its
// plan — an interpreter fallback creeping back in would still hash right
// and fails here instead.
func TestLegacyGoldensAcrossGrid(t *testing.T) {
	axes := gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 4}, policies: bothPolicies, transports: bothTransports}
	for _, row := range []gridRow{goldenMingle, goldenCascade, goldenBorder} {
		runGrid(t, row.over(axes))
	}
}

// TestTriggerCascadeHashInvariantAcrossGrid: the effect-aware trigger
// drain keeps trigger-cascade-heavy state bit-identical across the whole
// Shards × Workers grid — cascades batch per round, actions fan across
// workers, and the per-round apply is keyed by (event seq, rule seq),
// never by partitioning — on the direct drain's recorded trajectory and
// activation count.
func TestTriggerCascadeHashInvariantAcrossGrid(t *testing.T) {
	runGrid(t, goldenCascade.over(gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 2, 4, 8}}))
}

// TestBatchedApplyHashInvariantAcrossGrid pins the columnar apply to
// the row-at-a-time apply's recorded trajectories across the whole
// Shards × Workers grid, on both tick-pipeline workloads: the
// apply-heavy mingle crowd (set + add floods over four columns plus
// physics deltas) and the trigger cascade (per-round applies inside the
// trigger drain). Grouping by (table, column) must never show in the
// world state — only in the profile.
func TestBatchedApplyHashInvariantAcrossGrid(t *testing.T) {
	axes := gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 2, 4, 8}}
	runGrid(t, goldenMingle.over(axes))
	runGrid(t, goldenCascade.over(axes))
}

// TestOCCConflictPolicyHashInvariantAcrossGrid pins ConflictPolicy=occ
// across the whole Workers × Shards grid on both tick-pipeline
// workloads. Both write strictly per-entity, so occ must land on the
// lastwrite trajectory: the validate pass is pure observation until a
// conflicting assignment actually appears. The mingle crowd reads
// neighbours through Coarse mirrors, so its occ cells are held to the
// lastwrite cell at the same shard count.
func TestOCCConflictPolicyHashInvariantAcrossGrid(t *testing.T) {
	axes := gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 2, 4, 8}}
	axes.policies = []string{"", world.ConflictOCC}
	runGrid(t, goldenMingle.over(axes))
	axes.policies = []string{world.ConflictOCC}
	runGrid(t, goldenCascade.over(axes))
}

// TestObservabilityHashInvariantAcrossGrid proves the observability
// layer inert: with tracing and profiling fully enabled, both
// tick-pipeline workloads land on their un-instrumented trajectories
// and totals across the Shards × Workers grid — and the rig must have
// recorded real spans and real attribution.
func TestObservabilityHashInvariantAcrossGrid(t *testing.T) {
	axes := gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 4}, obs: []bool{false, true}}
	runGrid(t, goldenCascade.over(axes))
	runGrid(t, goldenMingle.over(axes))
}

// TestCrossShardWritesHashInvariantAcrossGrid pins the effect-forwarding
// exchange across the whole Shards × Workers grid, under both conflict
// policies: the border-write crowd (raiders and medics writing *each
// other* across region boundaries every tick) must land on the
// single-shard trajectory for 1/2/4/8 shards, forwarding effects and
// merging every one it forwards. With ghost writes forwarded to their
// owner and merged deterministically at the barrier, partitioning is
// invisible.
func TestCrossShardWritesHashInvariantAcrossGrid(t *testing.T) {
	runGrid(t, goldenBorder.over(gridAxes{
		shards: []int{1, 2, 4, 8}, workers: []int{1, 2, 4, 8}, policies: []string{"", world.ConflictOCC},
	}))
}

// TestClusterMatchesRuntimeMingle pins the TCP cluster to the in-process
// Runtime on the apply-heavy mingle crowd under both conflict policies,
// with the registry's Exact x/y mirrors on a map no unit leaves: every
// tick's global hash must be the single-shard one on both transports,
// and a multi-shard barrier must record its traffic in StepStats on
// both.
func TestClusterMatchesRuntimeMingle(t *testing.T) {
	row := goldenMingle.over(gridAxes{
		shards: []int{1, 2, 4}, workers: []int{2}, policies: []string{"", world.ConflictOCC}, transports: bothTransports,
	})
	row.exact, row.cfg.World = true, spatial.NewRect(-400, -400, 800, 800)
	runGrid(t, row)
}

// TestClusterMatchesRuntimeBorder races the adversarial cross-shard
// write scenario — RemoteEffectBatch traffic both directions every
// tick, OCC re-runs included — on both transports at 2 and 4 shards,
// forwarding the same effects on both.
func TestClusterMatchesRuntimeBorder(t *testing.T) {
	runGrid(t, clusterBorder.over(gridAxes{
		shards: []int{2, 4}, workers: []int{2}, policies: []string{"", world.ConflictOCC}, transports: bothTransports,
	}))
}

// TestClusterMatchesRuntimeTCP runs the border race over real loopback
// sockets: same hashes, every byte through the kernel.
func TestClusterMatchesRuntimeTCP(t *testing.T) {
	row := clusterBorder.over(gridAxes{
		shards: []int{2}, workers: []int{2}, policies: []string{world.ConflictOCC}, transports: bothTransports,
	})
	row.crowd.Units, row.ticks = 150, 8
	runGrid(t, row)
}

// TestClusterRebalanceAndDrift exercises the counts round over real
// sockets: a drifting crowd with periodic rebalancing must stay on the
// single-shard trajectory on both transports — the lockstep partitioner
// replicas only stay replicas if every peer feeds Rebalance the
// identical global counts at the identical ticks.
func TestClusterRebalanceAndDrift(t *testing.T) {
	runGrid(t, gridRow{
		sc: driftScenario, crowd: Crowd{Units: 300, Side: 400, Seed: 41, Speed: 35}, ticks: 16,
		cfg: Config{
			Seed: 7, World: spatial.NewRect(0, 0, 400, 400), TickDT: 0.5, GhostBand: 25,
			RebalanceEvery: 5, RebalanceMaxShift: 8,
		},
		gridAxes: gridAxes{shards: []int{1, 4}, workers: []int{2}, transports: bothTransports},
		handoffs: true,
	})
}

// TestDeterministicAcrossShardCounts: the hash must be invariant across
// the whole (shards × workers) grid — region sharding preserves rows
// bit-exactly through handoff, and the world's state-effect tick makes
// the per-shard step independent of its worker count.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	runGrid(t, gridRow{
		sc: driftScenario, crowd: Crowd{Units: 300, Side: 1000, Seed: 1234, Speed: 30}, ticks: 60,
		cfg:      Config{Seed: 7, World: spatial.NewRect(0, 0, 1000, 1000), TickDT: 0.5, GhostBand: 25, RebalanceEvery: 10},
		gridAxes: gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 2}},
		handoffs: true,
	})
}

// TestDeterminismSameSeedSameRun: one cell run twice is one trajectory.
func TestDeterminismSameSeedSameRun(t *testing.T) {
	row := gridRow{
		sc: driftScenario, crowd: Crowd{Units: 150, Side: 1000, Seed: 99, Speed: 30}, ticks: 40,
		cfg: Config{Seed: 11, World: spatial.NewRect(0, 0, 1000, 1000), TickDT: 0.5, GhostBand: 25},
	}
	cell := gridCell{shards: 4, workers: 1, transport: "inprocess"}
	if err := divergence("drift", cell, cell, runCell(t, row, cell).hashes, runCell(t, row, cell).hashes); err != nil {
		t.Fatal(err)
	}
}

// TestGridNamesFirstDivergence: a trajectory that leaves its reference's
// is reported at the first tick it differs, naming the scenario and both
// cells.
func TestGridNamesFirstDivergence(t *testing.T) {
	ref := gridCell{shards: 1, workers: 1, transport: "inprocess"}
	cell := gridCell{shards: 4, workers: 2, policy: world.ConflictOCC, transport: "tcp", obs: true}
	want := []uint64{1, 2, 3, 4, 5}
	if err := divergence("mingle", ref, cell, want, want); err != nil {
		t.Fatalf("equal trajectories diverged: %v", err)
	}
	err := divergence("mingle", ref, cell, want, []uint64{1, 2, 3, 9, 10})
	if err == nil {
		t.Fatal("a divergent trajectory passed")
	}
	for _, part := range []string{"mingle " + cell.String() + ":", ref.String(), "at tick 4:", "0000000000000009"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("failure %q does not name %q", err, part)
		}
	}
	if err := divergence("mingle", ref, cell, want, want[:2]); err == nil || !strings.Contains(err.Error(), "after tick 2") {
		t.Fatalf("a short trajectory reported %v", err)
	}
}

// TestLookupOffersOnlyExactCrowds: the CLIs' Lookup resolves the
// shard-count-exact crowds and refuses the one-world conflict crowd,
// which MustLookup still reaches and which will not guess a beacon count.
func TestLookupOffersOnlyExactCrowds(t *testing.T) {
	if got := strings.Join(ScenarioNames(), ","); got != "drift,cascade,mingle,border" {
		t.Fatalf("ScenarioNames = %s", got)
	}
	for _, name := range ScenarioNames() {
		if sc, err := Lookup(name); err != nil || sc != MustLookup(name) {
			t.Fatalf("Lookup(%q) = %v, %v", name, sc, err)
		}
	}
	if _, err := Lookup("conflict"); err == nil || !strings.Contains(err.Error(), "want drift, cascade, mingle, border") {
		t.Fatalf("Lookup(conflict) = %v", err)
	}
	w := world.New(world.Config{Seed: 1})
	if err := MustLookup("conflict").Seed(WorldSeeder{w}, Crowd{Units: 10, Side: 100, Seed: 1}); err == nil {
		t.Fatal("the conflict crowd seeded without a beacon count")
	}
}
