package experiment

import (
	"fmt"
	"math/rand"

	"gamedb/internal/metrics"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
)

// E19ChangeFeedReplication measures client replication: the border
// crowd's owned rows pumped into the replica hub every tick and fanned
// to 1k/10k/100k synthetic clients with per-client interest windows,
// delta encoding and tier degradation;
// bytes/tick and staleness percentiles size the outward bandwidth the
// paper's consistency tiers buy.
func E19ChangeFeedReplication(quick bool) *metrics.Table {
	t := metrics.NewTable("E19 — change-feed replication: client fan-out",
		"config", "tick", "bytes/tick", "stale p50/p99", "hash")
	t.Note = "bytes/tick grows sublinearly in clients (interest windows)"

	clientScales := pick(quick, []int{200, 1000}, []int{1000, 10000, 100000})
	fanUnits := pick(quick, 300, 2000)
	fanSide := pick(quick, 400.0, 1000.0)
	fanTicks := pick(quick, 10, 40)
	border := shard.MustLookup("border")
	for _, clients := range clientScales {
		rt, err := shard.New(shard.Config{
			Seed: 42, Shards: 4, World: spatial.NewRect(0, 0, fanSide, fanSide),
			TickDT: 0.5, GhostBand: 20, Workers: 4, ScriptFuel: 1 << 40,
			GhostFields: border.GhostFields,
		})
		if err != nil {
			panic(fmt.Sprintf("E19: %v", err))
		}
		if err := border.Seed(rt, shard.Crowd{Units: fanUnits, Side: fanSide, Seed: 7}); err != nil {
			panic(fmt.Sprintf("E19: %v", err))
		}
		hub := replica.NewHub(replica.HubConfig{
			Specs: border.HubFields, Cell: 32, ByteBudget: 1500,
		})
		rng := rand.New(rand.NewSource(2009))
		for i := 0; i < clients; i++ {
			budget := 0
			if rng.Float64() < 0.05 {
				budget = 1500 / 8 // throttled tail: induces tier degradation
			}
			hub.AddClient(i, spatial.Vec2{X: rng.Float64() * fanSide, Y: rng.Float64() * fanSide}, 64, budget)
		}
		pump := shard.NewFeedPump(rt, hub)
		pump.Pump()
		hub.FlushTick()
		var bytes int64
		elapsed := timeOp(func() {
			for i := 0; i < fanTicks; i++ {
				if _, err := rt.Step(); err != nil {
					panic(fmt.Sprintf("E19: tick %d: %v", i, err))
				}
				pump.Pump()
				rep := hub.FlushTick()
				bytes += rep.Bytes
			}
		})
		hash := rt.Hash()
		rt.Close()
		label := fmt.Sprintf("%d clients", clients)
		if clients >= 1000 {
			label = fmt.Sprintf("%dk clients", clients/1000)
		}
		t.AddRow(
			label,
			metrics.Fdur(float64(elapsed.Nanoseconds())/float64(fanTicks)),
			metrics.Fnum(float64(bytes)/float64(fanTicks)),
			fmt.Sprintf("%.0f/%.0f", hub.Staleness.Quantile(0.50), hub.Staleness.Quantile(0.99)),
			fmt.Sprintf("%016x", hash),
		)
	}
	return t
}
