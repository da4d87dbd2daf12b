package experiment

import (
	"fmt"

	"gamedb/internal/entity"
	"gamedb/internal/metrics"
	"gamedb/internal/shard"
	"gamedb/internal/world"
)

// E17ConflictPolicy measures the price of serializable conflict
// resolution: the shard registry's conflict crowd (drifting claimers
// racing blind writes and read-modify-writes onto shared beacon rows)
// ticked under ConflictLastWrite and ConflictOCC at 1 and 4 workers.
// Besides throughput it reports the conflict load (re-runs and aborts
// per tick) and the lost updates last-write-wins silently eats: total
// beacon heat after the run — under occ every raced increment lands (up
// to the retry cap), under lastwrite one per beacon per tick survives.
func E17ConflictPolicy(quick bool) *metrics.Table {
	t := metrics.NewTable("E17 — conflict policies: last-write-wins vs serializable OCC re-runs",
		"policy", "workers", "tick", "entities/sec", "retries/tick", "aborts/tick", "beacon heat")
	t.Note = "occ re-runs losing invocations that read stale cells; heat delta = lost updates lastwrite drops"
	claimers := pick(quick, 400, 2000)
	beacons := pick(quick, 16, 64)
	side := pick(quick, 180.0, 400.0)
	ticks := pick(quick, 5, 20)
	for _, policy := range []string{world.ConflictLastWrite, world.ConflictOCC} {
		for _, workers := range []int{1, 4} {
			w := world.New(world.Config{
				Seed: 42, CellSize: 12, ScriptFuel: 1 << 40, TickDT: 0.5,
				Workers: workers, ConflictPolicy: policy,
			})
			crowd := shard.Crowd{Units: claimers, Side: side, Seed: 1, Beacons: beacons}
			if err := shard.MustLookup("conflict").Seed(shard.WorldSeeder{World: w}, crowd); err != nil {
				panic(fmt.Sprintf("E17: %v", err))
			}
			retries, aborts := 0, 0
			elapsed := timeOp(func() {
				for i := 0; i < ticks; i++ {
					st, err := w.Step()
					if err != nil {
						panic(fmt.Sprintf("E17: tick %d: %v", i, err))
					}
					if st.ScriptErrors > 0 {
						panic(fmt.Sprintf("E17: %v", w.LastScriptError))
					}
					retries += st.EffectRetries
					aborts += st.EffectAborts
				}
			})
			var heat int64
			tab, _ := w.Table("units")
			kindCol := tab.Schema().MustCol("kind")
			heatCol := tab.Schema().MustCol("heat")
			tab.Scan(func(_ entity.ID, row []entity.Value) bool {
				if row[kindCol].Int() == 1 {
					heat += row[heatCol].Int()
				}
				return true
			})
			t.AddRow(
				policy,
				fmt.Sprint(workers),
				metrics.Fdur(float64(elapsed.Nanoseconds())/float64(ticks)),
				metrics.Fnum(float64(claimers*ticks)/elapsed.Seconds()),
				metrics.Fnum(float64(retries)/float64(ticks)),
				metrics.Fnum(float64(aborts)/float64(ticks)),
				fmt.Sprint(heat),
			)
		}
	}
	return t
}
