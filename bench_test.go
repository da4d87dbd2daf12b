// Benchmarks wrapping each experiment's measured kernel (one Benchmark
// per table/figure in DESIGN.md, E1–E12) so `go test -bench=.` tracks
// the same operations the gamebench tables report.
package gamedb_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gamedb/internal/bubble"
	"gamedb/internal/combat"
	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/persist"
	"gamedb/internal/query"
	"gamedb/internal/replica"
	"gamedb/internal/schema"
	"gamedb/internal/script"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/txn"
	"gamedb/internal/workload"
	"gamedb/internal/world"
)

func benchPoints(n int, side float64) []spatial.Point {
	rng := rand.New(rand.NewSource(42))
	pts := make([]spatial.Point, n)
	for i := range pts {
		pts[i] = spatial.Point{
			ID:  spatial.ID(i + 1),
			Pos: spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side},
		}
	}
	return pts
}

// BenchmarkE1PairwiseInteractions: naive Ω(n²) loop vs grid band join.
func BenchmarkE1PairwiseInteractions(b *testing.B) {
	pts := benchPoints(4096, 400)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query.CountInteractionsNaive(pts, 10)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query.CountInteractions(pts, 10)
		}
	})
}

// BenchmarkE2RangeQueryIndices: circle queries per index structure.
func BenchmarkE2RangeQueryIndices(b *testing.B) {
	pts := benchPoints(16000, 1000)
	indexes := map[string]spatial.Index{
		"linear":   spatial.NewLinear(),
		"grid":     spatial.NewGrid(25),
		"quadtree": spatial.NewQuadTree(spatial.NewRect(0, 0, 1000, 1000)),
		"kdtree":   spatial.NewKDTree(),
	}
	for _, ix := range indexes {
		for _, p := range pts {
			ix.Insert(p.ID, p.Pos)
		}
		if kd, ok := ix.(*spatial.KDTree); ok {
			kd.Rebuild() // build outside the timed region
		}
	}
	for _, name := range []string{"linear", "grid", "quadtree", "kdtree"} {
		ix := indexes[name]
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				c := spatial.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				n := 0
				ix.QueryCircle(c, 40, func(spatial.ID, spatial.Vec2) bool {
					n++
					return true
				})
			}
		})
	}
}

// BenchmarkE3KNN: 8-nearest-neighbor queries per index structure.
func BenchmarkE3KNN(b *testing.B) {
	pts := benchPoints(16000, 1000)
	indexes := map[string]spatial.Index{
		"linear":   spatial.NewLinear(),
		"grid":     spatial.NewGrid(25),
		"quadtree": spatial.NewQuadTree(spatial.NewRect(0, 0, 1000, 1000)),
		"kdtree":   spatial.NewKDTree(),
	}
	for _, ix := range indexes {
		for _, p := range pts {
			ix.Insert(p.ID, p.Pos)
		}
		if kd, ok := ix.(*spatial.KDTree); ok {
			kd.Rebuild() // build outside the timed region
		}
	}
	for _, name := range []string{"linear", "grid", "quadtree", "kdtree"} {
		ix := indexes[name]
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				c := spatial.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				ix.KNN(c, 8)
			}
		})
	}
}

// BenchmarkE4ConcurrencyControl: one tick's local-interaction txns under
// each scheme.
func BenchmarkE4ConcurrencyControl(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	move := workload.NewHotspot(rng, 1500, spatial.NewRect(0, 0, 3000, 3000), 20, 5)
	for i := 0; i < 100; i++ {
		move.Step(0.1)
	}
	txns := workload.LocalTxns(move, 4, 200)
	part := bubble.Compute(move.BubbleEntities(), bubble.Config{Horizon: 0.5, InteractRange: 15})
	groups := workload.GroupTxnsByBubble(part, txns)
	workers := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		ex   txn.Executor
	}{
		{"serial", txn.Serial{}},
		{"global-lock", txn.GlobalLock{}},
		{"2pl", txn.TwoPL{}},
		{"occ", txn.OCC{}},
		{"bubbles", txn.Partitioned{Groups: groups}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := txn.NewStore(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ex.Run(s, txns, workers)
			}
		})
	}
}

// BenchmarkE5ConsistencyTiers: one replication tick — 400 entity
// updates through the hub's tier gates, flushed to 16 clients.
func BenchmarkE5ConsistencyTiers(b *testing.B) {
	hub := replica.NewHub(replica.HubConfig{
		Specs: []replica.FieldSpec{
			{Name: "hp", Class: replica.Exact},
			{Name: "x", Class: replica.Coarse, Epsilon: 2, MaxAge: 100},
			{Name: "anim", Class: replica.Cosmetic, Period: 8},
		},
		Cell:       250,
		ByteBudget: 1 << 30,
	})
	rng := rand.New(rand.NewSource(9))
	pos := make([]spatial.Vec2, 400)
	vals := make([]float64, 3)
	for i := range pos {
		pos[i] = spatial.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		hub.SpawnEntity(spatial.ID(i+1), pos[i], vals)
	}
	for i := 0; i < 16; i++ {
		hub.AddClient(i, spatial.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, 400, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.BeginTick(int64(i + 1))
		for id := range pos {
			vals[1], vals[2] = rng.NormFloat64()*10, float64(i%16)
			hub.UpdateEntity(spatial.ID(id+1), pos[id], vals)
		}
		hub.FlushTick()
	}
}

// BenchmarkE6Aggro: target selection per policy.
func BenchmarkE6Aggro(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	b.Run("threat-table", func(b *testing.B) {
		tt := combat.NewThreatTable()
		for id := combat.ID(1); id <= 25; id++ {
			tt.AddThreat(id, float64(id)*10)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tt.AddThreat(combat.ID(i%25+1), 5)
			tt.Target(combat.MeleeSwitchFactor)
		}
	})
	b.Run("nearest-enemy", func(b *testing.B) {
		var np combat.NearestPolicy
		pts := make([]spatial.Point, 25)
		for i := range pts {
			pts[i] = spatial.Point{ID: spatial.ID(i + 1),
				Pos: spatial.Vec2{X: rng.Float64() * 20, Y: rng.Float64() * 20}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pts[i%25].Pos.X += rng.NormFloat64() * 0.2
			np.Target(spatial.Vec2{}, pts)
		}
	})
}

// benchState is a trivial persist.StateSource for E7.
type benchState struct{ n int64 }

func (s *benchState) Snapshot() ([]byte, error) { return make([]byte, 64*1024), nil }
func (s *benchState) Restore([]byte) error      { return nil }
func (s *benchState) Apply(persist.Action) error {
	s.n++
	return nil
}
func (s *benchState) Reset() { s.n = 0 }

// BenchmarkE7Checkpointing: applying an action stream under each policy.
func BenchmarkE7Checkpointing(b *testing.B) {
	policies := []persist.Policy{
		persist.Periodic{EveryTicks: 100},
		persist.Periodic{EveryTicks: 6000},
		persist.EventKeyed{MaxTicks: 1000},
	}
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			m := persist.NewManager(&benchState{}, &persist.Backing{}, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				important := i%997 == 0
				if _, err := m.Apply(int64(i), "act", important, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8SchemaEvolution: full-table scans, structured vs blob.
func BenchmarkE8SchemaEvolution(b *testing.B) {
	const rows = 20000
	tab := entity.NewTable("p", entity.MustSchema(
		entity.Column{Name: "hp", Kind: entity.KindInt},
		entity.Column{Name: "name", Kind: entity.KindString},
	))
	blob := schema.NewBlobStore("p")
	for i := 1; i <= rows; i++ {
		tab.InsertRow(entity.ID(i), []entity.Value{entity.Int(int64(i)), entity.Str("player")})
		blob.Insert(entity.ID(i), map[string]entity.Value{
			"hp": entity.Int(int64(i)), "name": entity.Str("player"),
		})
	}
	b.Run("structured-scan", func(b *testing.B) {
		hp := tab.Schema().MustCol("hp")
		for i := 0; i < b.N; i++ {
			var total int64
			tab.Scan(func(_ entity.ID, row []entity.Value) bool {
				total += row[hp].Int()
				return true
			})
		}
	})
	b.Run("blob-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var total int64
			blob.Scan(func(_ entity.ID, f map[string]entity.Value) bool {
				total += f["hp"].Int()
				return true
			})
		}
	})
}

const benchRegroupPack = `
<contentpack name="regroup">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="unit" table="units" script="regroup"/>
  <script name="regroup">
fn on_tick(self) {
  let ns = nearby(self, 8.0);
  let n = len(ns);
  if n == 0 { return; }
  let cx = 0.0;
  let cy = 0.0;
  for id in ns {
    cx = cx + get(id, "x");
    cy = cy + get(id, "y");
  }
  move_toward(self, cx / n, cy / n, 0.5);
}
  </script>
</contentpack>`

// BenchmarkE9SetAtATime: one behavior tick, scripted vs declarative.
func BenchmarkE9SetAtATime(b *testing.B) {
	const n = 2000
	const radius = 8.0
	c, errs := content.LoadAndCompile(strings.NewReader(benchRegroupPack))
	if len(errs) > 0 {
		b.Fatal(errs)
	}
	w := world.New(world.Config{Seed: 42, CellSize: radius, ScriptFuel: 1 << 40})
	if err := w.LoadPack(c); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tab := entity.NewTable("units", entity.MustSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
	))
	for i := 0; i < n; i++ {
		p := spatial.Vec2{X: rng.Float64() * 160, Y: rng.Float64() * 160}
		if _, err := w.Spawn("unit", p); err != nil {
			b.Fatal(err)
		}
		tab.InsertRow(entity.ID(i+1), []entity.Value{entity.Float(p.X), entity.Float(p.Y)})
	}
	b.Run("script", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("declarative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bj, err := query.NewBandJoin(
				query.NewScanAs(tab, "a", []string{"x", "y"}),
				query.NewScanAs(tab, "b", []string{"x", "y"}),
				"a.x", "a.y", "b.x", "b.y", radius)
			if err != nil {
				b.Fatal(err)
			}
			agg, err := query.NewAggregate(bj, []string{"a.id"}, []query.AggSpec{
				{Func: query.AggAvg, Expr: query.Col("b.x"), As: "cx"},
				{Func: query.AggAvg, Expr: query.Col("b.y"), As: "cy"},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := query.Run(agg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10ParallelJoin: band join across worker counts.
func BenchmarkE10ParallelJoin(b *testing.B) {
	pts := benchPoints(16000, 1500)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.CountInteractionsParallel(pts, 10, workers)
			}
		})
	}
}

// BenchmarkE11RestrictedScripting: interpreter throughput (fuel/sec) and
// restricted-check cost.
func BenchmarkE11RestrictedScripting(b *testing.B) {
	prog, err := script.Parse(`
fn main() { let s = 0; let i = 0; while i < 1000 { s = s + i; i = i + 1; } return s; }`)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interpret", func(b *testing.B) {
		in := script.NewInterp(prog, script.Options{Fuel: 1 << 30})
		for i := 0; i < b.N; i++ {
			if _, err := in.Call("main"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			script.CheckRestricted(prog)
		}
	})
}

// shardBenchRuntime builds an n-shard runtime with `units` drifting
// units on a side×side map (the registry's drift crowd, so bench,
// shardsim and the example race the same world).
func shardBenchRuntime(b *testing.B, n, units int, side, band float64) *shard.Runtime {
	b.Helper()
	rt, err := shard.New(shard.Config{
		Seed:      42,
		Shards:    n,
		World:     spatial.NewRect(0, 0, side, side),
		CellSize:  16,
		TickDT:    0.5,
		GhostBand: band,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	if err := shard.MustLookup("drift").Seed(rt, shard.Crowd{Units: units, Side: side, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkE13ShardedTick: one tick of the drifting-crowd scenario on a
// plain single world vs the sharded runtime at 1/2/4/8 shards. The
// single-world run is the no-coordinator baseline; shards-1 isolates
// barrier overhead; higher counts add parallelism (and handoff + ghost
// work at the boundaries).
func BenchmarkE13ShardedTick(b *testing.B) {
	const units, side = 2000, 2000.0
	b.Run("single-world-baseline", func(b *testing.B) {
		w := world.New(world.Config{Seed: 42, CellSize: 16, TickDT: 0.5})
		if err := shard.MustLookup("drift").Seed(shard.WorldSeeder{World: w}, shard.Crowd{Units: units, Side: side, Seed: 42}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(units)*float64(b.N)/b.Elapsed().Seconds(), "entities/sec")
	})
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			rt := shardBenchRuntime(b, n, units, side, 24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(units)*float64(b.N)/b.Elapsed().Seconds(), "entities/sec")
			b.ReportMetric(float64(rt.HandoffTotal.Load())/float64(b.N), "handoffs/tick")
		})
	}
}

// BenchmarkE13GhostBandOverhead: the cost of ghost replication at 4
// shards as the mirrored border band widens (a negative band disables
// ghosts entirely — the "band-off" baseline).
func BenchmarkE13GhostBandOverhead(b *testing.B) {
	for _, band := range []float64{-1, 24, 96} {
		name := fmt.Sprintf("band-%.0f", band)
		if band < 0 {
			name = "band-off"
		}
		b.Run(name, func(b *testing.B) {
			rt := shardBenchRuntime(b, 4, 2000, 2000, band)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rt.GhostShipTotal.Load())/float64(b.N), "ghost-ships/tick")
		})
	}
}

const benchCrowdPack = `
<contentpack name="crowd">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="met" kind="int"/>
  </schema>
  <archetype name="unit" table="units" script="mingle"/>
  <script name="mingle">
fn on_tick(self) {
  let ns = nearby(self, 8.0);
  let n = len(ns);
  if n == 0 { return; }
  let cx = 0.0;
  let cy = 0.0;
  for id in ns {
    cx = cx + get(id, "x");
    cy = cy + get(id, "y");
  }
  move_toward(self, cx / n, cy / n, 0.5);
  add(self, "met", n);
}
  </script>
</contentpack>`

// parallelTickWorld builds the E14 scenario: a script-heavy crowd where
// every entity runs an interpreted behavior each tick (neighbor scan +
// centroid math + buffered writes), the workload the state-effect
// pipeline exists to parallelize.
func parallelTickWorld(b *testing.B, n, workers int) *world.World {
	b.Helper()
	c, errs := content.LoadAndCompile(strings.NewReader(benchCrowdPack))
	if len(errs) > 0 {
		b.Fatal(errs)
	}
	w := world.New(world.Config{Seed: 42, CellSize: 8, ScriptFuel: 1 << 40, Workers: workers})
	if err := w.LoadPack(c); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	side := 160 * math.Sqrt(float64(n)/2000)
	for i := 0; i < n; i++ {
		p := spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		if _, err := w.Spawn("unit", p); err != nil {
			b.Fatal(err)
		}
	}
	return w
}

// BenchmarkE14ParallelTick: one tick of a 2.5k-entity behavior-driven
// crowd as the query phase fans across 1/2/4/8 workers. The state-effect
// pipeline keeps the world hash identical at every width, so the only
// difference is throughput; apply-ns/op isolates the effect-buffer merge
// overhead that the parallel speedup pays for. (Speedup needs cores:
// GOMAXPROCS caps what any worker count can deliver.)
func BenchmarkE14ParallelTick(b *testing.B) {
	const units = 2500
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			w := parallelTickWorld(b, units, workers)
			b.ResetTimer()
			var queryNS, applyNS int64
			for i := 0; i < b.N; i++ {
				st, err := w.Step()
				if err != nil {
					b.Fatal(err)
				}
				if st.ScriptErrors > 0 {
					b.Fatal(w.LastScriptError)
				}
				queryNS += st.QueryNS
				applyNS += st.ApplyNS
			}
			b.ReportMetric(float64(units)*float64(b.N)/b.Elapsed().Seconds(), "entities/sec")
			b.ReportMetric(float64(applyNS)/float64(b.N), "apply-ns/op")
			b.ReportMetric(float64(queryNS)/float64(b.N), "query-ns/op")
		})
	}
}

// conflictBenchWorld builds the E17 scenario: the registry's conflict
// crowd — drifting claimers racing to stamp
// shared beacon rows (one blind write-write race plus one
// read-modify-write per visible beacon), the workload whose conflicting
// assignments the OCC policy re-runs.
func conflictBenchWorld(b *testing.B, claimers, beacons, workers int, conflict string) *world.World {
	b.Helper()
	w := world.New(world.Config{
		Seed: 42, CellSize: 12, ScriptFuel: 1 << 40, TickDT: 0.5,
		Workers: workers, ConflictPolicy: conflict,
	})
	crowd := shard.Crowd{Units: claimers, Side: 400, Seed: 1, Beacons: beacons}
	if err := shard.MustLookup("conflict").Seed(shard.WorldSeeder{World: w}, crowd); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkE17ConflictPolicy: one tick of the beacon-claiming crowd
// under lastwrite vs occ at 1/4 workers. The delta is the full price of
// serializable conflict resolution — read-set logging during the query
// phase, the validate pass over the merge, and the serial re-run
// rounds; retries/tick and aborts/tick size the conflict load the
// policy is paying for.
func BenchmarkE17ConflictPolicy(b *testing.B) {
	const claimers, beacons = 2000, 64
	run := func(b *testing.B, conflict string, workers int) {
		w := conflictBenchWorld(b, claimers, beacons, workers, conflict)
		b.ReportAllocs()
		b.ResetTimer()
		var applyNS, queryNS int64
		retries, aborts, conflicts := 0, 0, 0
		for i := 0; i < b.N; i++ {
			st, err := w.Step()
			if err != nil {
				b.Fatal(err)
			}
			if st.ScriptErrors > 0 {
				b.Fatal(w.LastScriptError)
			}
			applyNS += st.ApplyNS
			queryNS += st.QueryNS
			retries += st.EffectRetries
			aborts += st.EffectAborts
			conflicts += st.EffectConflicts
		}
		b.ReportMetric(float64(claimers)*float64(b.N)/b.Elapsed().Seconds(), "entities/sec")
		b.ReportMetric(float64(applyNS)/float64(b.N), "apply-ns/op")
		b.ReportMetric(float64(queryNS)/float64(b.N), "query-ns/op")
		b.ReportMetric(float64(retries)/float64(b.N), "retries/tick")
		b.ReportMetric(float64(aborts)/float64(b.N), "aborts/tick")
		b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/tick")
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("lastwrite-w%d", workers), func(b *testing.B) {
			run(b, world.ConflictLastWrite, workers)
		})
		b.Run(fmt.Sprintf("occ-w%d", workers), func(b *testing.B) {
			run(b, world.ConflictOCC, workers)
		})
	}
}

// BenchmarkE22CrossShardEffects: one tick of the border-write crowd
// (raiders and medics writing each other through ghost mirrors along
// region boundaries) at 1/2/4 shards under lastwrite vs occ. The delta
// over shards-1 prices the barrier's effect-forwarding exchange —
// sealing per-owner RemoteEffectBatches, the deterministic foreign
// merge, and (under occ) shipping and validating ghost read-sets;
// fwd/tick and remote-merged/tick size that traffic.
func BenchmarkE22CrossShardEffects(b *testing.B) {
	const units, side = 1500, 800.0
	border := shard.MustLookup("border")
	run := func(b *testing.B, conflict string, shards int) {
		rt, err := shard.New(shard.Config{
			Seed: 42, Shards: shards, World: spatial.NewRect(0, 0, side, side),
			TickDT: 0.5, GhostBand: 20, Workers: 4, ScriptFuel: 1 << 40,
			GhostFields: border.GhostFields, ConflictPolicy: conflict,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(rt.Close)
		if err := border.Seed(rt, shard.Crowd{Units: units, Side: side, Seed: 7}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(units)*float64(b.N)/b.Elapsed().Seconds(), "entities/sec")
		b.ReportMetric(float64(rt.ForwardTotal.Load())/float64(b.N), "fwd/tick")
		b.ReportMetric(float64(rt.RemoteMergeTotal.Load())/float64(b.N), "remote-merged/tick")
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lastwrite-s%d", shards), func(b *testing.B) {
			run(b, world.ConflictLastWrite, shards)
		})
		b.Run(fmt.Sprintf("occ-s%d", shards), func(b *testing.B) {
			run(b, world.ConflictOCC, shards)
		})
	}
}

// BenchmarkE19ReplicaFanout pumps the border crowd's sealed change feeds
// through the replica hub into 1k/10k delta-encoded client windows and
// prices the outward bytes per tick.
func BenchmarkE19ReplicaFanout(b *testing.B) {
	const units, side = 1500, 800.0
	border := shard.MustLookup("border")
	newRuntime := func(b *testing.B) *shard.Runtime {
		rt, err := shard.New(shard.Config{
			Seed: 42, Shards: 4, World: spatial.NewRect(0, 0, side, side),
			TickDT: 0.5, GhostBand: 20, Workers: 4, ScriptFuel: 1 << 40,
			GhostFields: border.GhostFields, ChangeFeed: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(rt.Close)
		if err := border.Seed(rt, shard.Crowd{Units: units, Side: side, Seed: 7}); err != nil {
			b.Fatal(err)
		}
		return rt
	}
	for _, clients := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("fanout/%dclients", clients), func(b *testing.B) {
			rt := newRuntime(b)
			hub := replica.NewHub(replica.HubConfig{
				Specs: []replica.FieldSpec{
					{Name: "x", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
					{Name: "y", Class: replica.Coarse, Epsilon: 0.5, MaxAge: 10},
					{Name: "hp", Class: replica.Exact},
				},
				Cell: 32, ByteBudget: 1500,
			})
			rng := rand.New(rand.NewSource(2009))
			for i := 0; i < clients; i++ {
				budget := 0
				if rng.Float64() < 0.05 {
					budget = 1500 / 8
				}
				hub.AddClient(i, spatial.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}, 64, budget)
			}
			pump := shard.NewFeedPump(rt, hub)
			pump.Pump()
			hub.FlushTick()
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				if _, err := rt.Step(); err != nil {
					b.Fatal(err)
				}
				pump.Pump()
				rep := hub.FlushTick()
				bytes += rep.Bytes
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/tick")
		})
	}
}

// BenchmarkE12NavMesh: pathfinding per representation plus BSP sight.
func BenchmarkE12NavMesh(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	d := spatial.GenerateDungeon(rng, 150, 110, 12)
	bsp := spatial.NewBSPTree(d.Walls)
	qrng := rand.New(rand.NewSource(13))
	pairs := make([][2]spatial.Vec2, 64)
	for i := range pairs {
		pairs[i] = [2]spatial.Vec2{d.RandomWalkable(qrng), d.RandomWalkable(qrng)}
	}
	b.Run("grid-astar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pq := pairs[i%len(pairs)]
			d.Grid.FindPath(pq[0], pq[1])
		}
	})
	b.Run("navmesh-astar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pq := pairs[i%len(pairs)]
			d.Mesh.FindPath(pq[0], pq[1])
		}
	})
	b.Run("bsp-line-of-sight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pq := pairs[i%len(pairs)]
			bsp.Blocked(pq[0], pq[1])
		}
	})
}
