package experiment

import (
	"fmt"

	"gamedb/internal/metrics"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// E22CrossShardEffects measures the cost and exactness of first-class
// cross-shard writes: the shard registry's border crowd (raiders and
// medics clustered along region boundaries, writing each other through
// ghost mirrors every tick) at 1/2/4 shards under
// lastwrite and occ. Records targeting ghosts seal into per-owner
// RemoteEffectBatches and merge at the tick barrier, so forwarded/tick
// and remote-merged/tick size the exchange traffic, and the final world
// hash — identical down every column — is the exactness claim: the
// partitioning is invisible to border-writing behaviors. Under occ the
// forwarded invocations additionally carry their ghost read-sets; this
// scenario's writes are commutative or idempotent and never read back,
// so remote invalidations stay at zero and the occ column prices pure
// metadata shipping.
func E22CrossShardEffects(quick bool) *metrics.Table {
	t := metrics.NewTable("E22 — cross-shard effects: ghost writes forwarded through the tick barrier",
		"policy", "shards", "tick", "entities/sec", "fwd/tick", "remote-merged/tick", "remote-inval", "hash")
	t.Note = "identical hashes down a policy column = exact shard-count-invariant semantics for border writes"
	units := pick(quick, 300, 1500)
	side := pick(quick, 400.0, 800.0)
	ticks := pick(quick, 10, 40)
	border := shard.MustLookup("border")
	for _, policy := range []string{world.ConflictLastWrite, world.ConflictOCC} {
		for _, shards := range []int{1, 2, 4} {
			rt, err := shard.New(shard.Config{
				Seed: 42, Shards: shards, World: spatial.NewRect(0, 0, side, side),
				TickDT: 0.5, GhostBand: 20, Workers: 4, ScriptFuel: 1 << 40,
				GhostFields: border.GhostFields, ConflictPolicy: policy,
			})
			if err != nil {
				panic(fmt.Sprintf("E22: %v", err))
			}
			if err := border.Seed(rt, shard.Crowd{Units: units, Side: side, Seed: 7}); err != nil {
				panic(fmt.Sprintf("E22: %v", err))
			}
			elapsed := timeOp(func() {
				for i := 0; i < ticks; i++ {
					if _, err := rt.Step(); err != nil {
						panic(fmt.Sprintf("E22: tick %d: %v", i, err))
					}
				}
			})
			hash := rt.Hash()
			fwd := rt.ForwardTotal.Load()
			merged := rt.RemoteMergeTotal.Load()
			inval := rt.RemoteInvalidationTotal.Load()
			rt.Close()
			t.AddRow(
				policy,
				fmt.Sprint(shards),
				metrics.Fdur(float64(elapsed.Nanoseconds())/float64(ticks)),
				metrics.Fnum(float64(units*ticks)/elapsed.Seconds()),
				metrics.Fnum(float64(fwd)/float64(ticks)),
				metrics.Fnum(float64(merged)/float64(ticks)),
				fmt.Sprint(inval),
				fmt.Sprintf("%016x", hash),
			)
		}
	}
	return t
}
