package shard

import (
	"math/rand"
	"runtime"
	"testing"

	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// Allocation budgets: the benchmark's crowds (bench/workloads.go — same
// sizes, shards, one worker each, seed 2009), each held to about twice
// the heap objects per tick it measures after 20 warm-up ticks. A
// regression that doubles a tick's allocations fails here, in tier-1,
// not only in the benchmark.

func benchConfig(shards int) Config {
	return Config{
		Seed: 2009, Shards: shards, World: spatial.NewRect(0, 0, 2000, 2000),
		CellSize: 16, TickDT: 0.5, GhostBand: 24, Workers: 1,
	}
}

func checkAllocBudget(t *testing.T, budget float64, cfg Config, sc *Scenario, crowd Crowd, ticks int) {
	t.Helper()
	name := sc.Name
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := sc.Seed(rt, crowd); err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step(20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step(ticks)
	runtime.ReadMemStats(&after)
	perTick := float64(after.Mallocs-before.Mallocs) / float64(ticks)
	if perTick > budget {
		t.Fatalf("%s tick allocates %.0f objects, budget %.0f", name, perTick, budget)
	}
	t.Logf("%s tick allocates %.0f objects (budget %.0f)", name, perTick, budget)
}

// TestCascadeAllocBudget: 1000 pulsers, 4 shards. Interpreted triggers
// cost about 78 000 mallocs per tick here and the interpreted pulse
// behavior another 5 000; with both on plans the tick allocates about
// 43, and with the query phase fanned out by a reusable job about 39.
func TestCascadeAllocBudget(t *testing.T) {
	checkAllocBudget(t, 80, benchConfig(4), cascadeScenario, Crowd{Units: 1000, Side: 2000, Seed: 2009}, 50)
}

// TestDriftAllocBudget: 8000 drifting units, 8 shards, a rebalance every
// 50 ticks. With a bucket re-created for nearly every move the tick cost
// about 7 500 mallocs; recycled buckets left the barrier's, about 1 160,
// and buckets that start with room for a few points (cells a directory
// period apart share one once the crowd spreads) about 1 090, with
// mirror bookkeeping reused and inserts not copying rows about 66, and
// with the query phase fanned out by a reusable job about 58.
func TestDriftAllocBudget(t *testing.T) {
	cfg := benchConfig(8)
	cfg.RebalanceEvery = 50
	checkAllocBudget(t, 120, cfg, driftScenario, Crowd{Units: 8000, Side: 2000, Seed: 2009}, 100)
}

// TestMingleAllocBudget: 8000 minglers, 4 shards, the world widened
// like the benchmark's so no unit leaves it; about 38 mallocs a tick,
// none of them in the batched query phase (world's
// TestQueryPhaseAllocFree).
func TestMingleAllocBudget(t *testing.T) {
	cfg := benchConfig(4)
	cfg.World = spatial.NewRect(-2000, -2000, 4000, 4000)
	cfg.GhostBand = 20
	cfg.GhostFields = mingleScenario.GhostFields
	checkAllocBudget(t, 80, cfg, mingleScenario, Crowd{Units: 8000, Side: 2000, Seed: 2009}, 30)
}

// TestBorderAllocBudget: the benchmark's border crowd (border.tcp and
// fanout.border: 2 000 raiders and medics writing each other across
// region boundaries) in process, under occ, 4 shards. raid and mend use
// only nearby / for / if / get / set / add, so on batched plans — re-runs
// on the scalar plan included — the tick is left with the barrier's
// allocations, about 114; one of them slipping back onto the interpreter
// costs tens of thousands and fails here, not in a benchmark three
// changes later.
func TestBorderAllocBudget(t *testing.T) {
	cfg := benchConfig(4)
	cfg.World = spatial.NewRect(-400, -400, 2400, 2400)
	cfg.GhostFields = borderScenario.GhostFields
	cfg.ConflictPolicy = world.ConflictOCC
	checkAllocBudget(t, 230, cfg, borderScenario, Crowd{Units: 2000, Side: 2000, Seed: 2009}, 50)
}

// TestCompileBehaviorsFieldIsInert: Config.CompileBehaviors is declared
// only because bench/ still assigns it. Whatever it holds, the crowd
// lands on the same hash with the same number of behavior calls
// completed on plans.
func TestCompileBehaviorsFieldIsInert(t *testing.T) {
	run := func(v string) (uint64, int) {
		cfg := Config{
			Seed: 7, Shards: 2, World: spatial.NewRect(0, 0, 400, 400),
			TickDT: 0.5, GhostBand: 25, ScriptFuel: 1 << 20, CompileBehaviors: v,
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		if err := mingleScenario.Seed(rt, Crowd{Units: 250, Side: 400, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		compiled := 0
		for i := 0; i < 10; i++ {
			st, err := rt.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, ws := range st.Shards {
				compiled += ws.CompiledCalls
			}
		}
		return rt.Hash(), compiled
	}
	wantHash, wantCompiled := run("")
	if wantCompiled == 0 {
		t.Fatal("no behavior call completed on a plan")
	}
	for _, v := range []string{world.CompileOn, "off"} {
		if h, c := run(v); h != wantHash || c != wantCompiled {
			t.Fatalf("CompileBehaviors=%q: hash %x compiled %d, want %x %d", v, h, c, wantHash, wantCompiled)
		}
	}
}

// TestHubFlushAllocBudget: the benchmark's fan-out tail (fanout.border:
// 2 000 border units → FeedPump → a wire-sizing hub → 10 000 clients,
// here all unthrottled and standing still), 100 ticks in. The pump and
// the hub keep their scratch, so what a tick still allocates is
// high-water growth — a client queue, a cell's list or its population
// passing its previous maximum as the crowd wanders — about 240 objects
// in the flush and 150 in BeginTick plus intake, falling with every
// tick. With a map probed per (client, cell) and queues that gave their
// capacity away on every drain the flush allocated 7 000 here. The
// world's own tick is not counted; replica's TestHubSteadyStateAllocs
// holds a crowd that repeats itself to a flush that allocates per
// worker and an intake that allocates nothing.
func TestHubFlushAllocBudget(t *testing.T) {
	cfg := benchConfig(4)
	cfg.World = spatial.NewRect(-400, -400, 2400, 2400)
	cfg.GhostFields = borderScenario.GhostFields
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := borderScenario.Seed(rt, Crowd{Units: 2000, Side: 2000, Seed: 2009}); err != nil {
		t.Fatal(err)
	}
	hub := borderHub(1 << 30)
	rng := rand.New(rand.NewSource(2009))
	for i := 0; i < 10000; i++ {
		hub.AddClient(i, spatial.Vec2{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}, 64, 0)
	}
	pump := NewFeedPump(rt, hub)
	pump.Pump()
	hub.FlushTick()

	var intake, flush uint64
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	const warm, ticks = 100, 20
	for i := 0; i < warm+ticks; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		m0 := mallocs()
		pump.Pump()
		m1 := mallocs()
		hub.FlushTick()
		m2 := mallocs()
		if i >= warm {
			intake += m1 - m0
			flush += m2 - m1
		}
	}
	perIntake, perFlush := float64(intake)/ticks, float64(flush)/ticks
	t.Logf("intake allocates %.1f objects a tick, flush %.1f", perIntake, perFlush)
	if perFlush > 470 {
		t.Fatalf("FlushTick allocates %.0f objects for 10 000 clients, budget 470", perFlush)
	}
	if perIntake > 290 {
		t.Fatalf("BeginTick and intake allocate %.0f objects a tick, budget 290", perIntake)
	}
}

// borderHub is the benchmark's fan-out hub for the border crowd
// (fanout.border): the border crowd's hub fields, a 1500-byte budget,
// client backlogs capped at maxQueue bytes (0 = the hub's default), no
// client connected yet.
func borderHub(maxQueue int) *replica.Hub {
	return replica.NewHub(replica.HubConfig{
		Specs: borderScenario.HubFields, Cell: 32, ByteBudget: 1500, MaxQueue: maxQueue,
	})
}
