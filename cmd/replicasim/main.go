// Command replicasim races a synthetic client crowd against a sharded
// world: the runtime ticks a scenario, a FeedPump offers every owned
// row to a replica fan-out hub each tick, and the hub ships
// delta-encoded updates to every client window under per-client byte
// budgets — reporting fan-out bytes/tick, staleness percentiles and
// tier degradation. The point is the scaling shape: per-tick fan-out
// work is O(owned rows + clients touched), so six-figure client counts
// ride on one pass over the shard worlds' rows.
//
//	replicasim                                  # 10k clients, border crowd
//	replicasim -clients 100000 -ticks 100       # the 100k regime
//	replicasim -slow-frac 0.2                   # 20% throttled clients:
//	                                            # watch tiers degrade
//	replicasim -scenario mingle                 # the neighbourhood crowd
//	replicasim -json > BENCH_replica.json       # machine-readable record
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"gamedb/internal/metrics"
	"gamedb/internal/replica"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
)

// served lists the registry crowds a hub has client fields for.
func served() (names []string) {
	for _, name := range shard.ScenarioNames() {
		if sc, _ := shard.Lookup(name); sc.HubFields != nil {
			names = append(names, name)
		}
	}
	return names
}

func main() {
	clients := flag.Int("clients", 10000, "synthetic clients connected to the fan-out hub")
	ticks := flag.Int("ticks", 200, "ticks to simulate")
	shards := flag.Int("shards", 4, "region shards")
	workers := flag.Int("workers", 4, "per-shard query-phase workers")
	scenario := flag.String("scenario", "border", "crowd from the scenario registry that a hub serves: "+strings.Join(served(), " | "))
	units := flag.Int("units", 4000, "entities in the scenario")
	side := flag.Float64("side", 2000, "world side length")
	seed := flag.Int64("seed", 2009, "scenario and client-placement seed")
	aoi := flag.Float64("aoi", 64, "client area-of-interest radius")
	cell := flag.Float64("cell", 32, "interest cell size")
	budget := flag.Int("budget", 1500, "per-client per-tick drain budget in wire-encoded bytes")
	slowFrac := flag.Float64("slow-frac", 0.05, "fraction of clients throttled to budget/8 (induces backpressure and tier degradation)")
	drift := flag.Float64("drift", 0.02, "fraction of clients whose focus moves each tick")
	report := flag.Int("report", 0, "print per-tick fan-out stats every N ticks (0 = off)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable benchmark record on stdout")
	flag.Parse()
	sc, err := shard.Lookup(*scenario)
	if err != nil || sc.HubFields == nil {
		fmt.Fprintf(os.Stderr, "replicasim: no hub serves -scenario %q (want %s)\n", *scenario, strings.Join(served(), ", "))
		os.Exit(2)
	}

	cfg := sc.Configure(shard.Config{
		Seed:      *seed,
		Shards:    *shards,
		Workers:   *workers,
		World:     spatial.NewRect(0, 0, *side, *side),
		CellSize:  16,
		TickDT:    0.5,
		GhostBand: 24,
	})
	rt, err := shard.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replicasim: %v\n", err)
		os.Exit(1)
	}
	defer rt.Close()
	if err := sc.Seed(rt, shard.Crowd{Units: *units, Side: *side, Seed: *seed}); err != nil {
		fmt.Fprintf(os.Stderr, "replicasim: %v\n", err)
		os.Exit(1)
	}

	hub := replica.NewHub(replica.HubConfig{
		Specs:      sc.HubFields,
		Cell:       *cell,
		ByteBudget: *budget,
	})
	// Client placement and drift draw from their own stream, so the world
	// evolves exactly as shardsim's does at equal seeds and sizes.
	crng := rand.New(rand.NewSource(*seed * 7919))
	conns := make([]*replica.Conn, *clients)
	slowBudget := *budget / 8
	if slowBudget < 1 {
		slowBudget = 1
	}
	for i := range conns {
		focus := spatial.Vec2{X: crng.Float64() * *side, Y: crng.Float64() * *side}
		b := 0 // hub default
		if crng.Float64() < *slowFrac {
			b = slowBudget
		}
		conns[i] = hub.AddClient(i, focus, *aoi, b)
	}

	pump := shard.NewFeedPump(rt, hub)
	if !*jsonOut {
		fmt.Printf("replicasim: %d clients over %d entities (%s), %d shards × %d workers, %d cores\n\n",
			*clients, *units, *scenario, *shards, *workers, runtime.GOMAXPROCS(0))
	}

	// Publish the seeded population (the initial Sync's sealed window
	// holds every spawn), then connect the windows: the first flush
	// snapshots each client's covered cells.
	pump.Pump()
	hub.FlushTick()

	var bytesTotal, msgsTotal, snapsTotal, dropsTotal int64
	driftN := int(float64(*clients) * *drift)
	var lastRep replica.TickReport
	start := time.Now()
	for i := 0; i < *ticks; i++ {
		if _, err := rt.Step(); err != nil {
			fmt.Fprintf(os.Stderr, "replicasim: tick %d: %v\n", rt.Tick(), err)
			os.Exit(1)
		}
		pump.Pump()
		rep := hub.FlushTick()
		bytesTotal += rep.Bytes
		msgsTotal += rep.Msgs
		snapsTotal += rep.Snapshots
		dropsTotal += rep.Drops
		lastRep = rep
		for d := 0; d < driftN; d++ {
			c := conns[crng.Intn(len(conns))]
			hub.MoveClient(c, spatial.Vec2{
				X: clampf(c.Focus.X+(crng.Float64()*2-1)**aoi, 0, *side),
				Y: clampf(c.Focus.Y+(crng.Float64()*2-1)**aoi, 0, *side),
			})
		}
		if *report > 0 && !*jsonOut && (i+1)%*report == 0 {
			fmt.Printf("tick %4d  msgs=%d bytes=%d snaps=%d drops=%d tiers=[%d %d %d]\n",
				rep.Tick, rep.Msgs, rep.Bytes, rep.Snapshots, rep.Drops,
				rep.Tiers[0], rep.Tiers[1], rep.Tiers[2])
		}
	}
	elapsed := time.Since(start)
	hash := rt.Hash()

	p50 := hub.Staleness.Quantile(0.50)
	p99 := hub.Staleness.Quantile(0.99)
	if *jsonOut {
		rep := metrics.BenchReport{Suite: "replicasim"}
		rep.Records = append(rep.Records, metrics.BenchRecord{
			Name:           fmt.Sprintf("replicasim/%s/clients-%d", *scenario, *clients),
			NsPerOp:        float64(elapsed.Nanoseconds()) / float64(*ticks),
			EntitiesPerSec: float64(*clients) * float64(*ticks) / elapsed.Seconds(),
			Extra: map[string]any{
				"scenario":          *scenario,
				"clients":           *clients,
				"units":             *units,
				"shards":            *shards,
				"workers":           *workers,
				"fanout_bytes":      bytesTotal,
				"bytes_per_tick":    float64(bytesTotal) / float64(*ticks),
				"msgs_per_tick":     float64(msgsTotal) / float64(*ticks),
				"snapshots":         snapsTotal,
				"drops":             dropsTotal,
				"staleness_p50":     p50,
				"staleness_p99":     p99,
				"tiers_exact":       lastRep.Tiers[0],
				"tiers_coarse":      lastRep.Tiers[1],
				"tiers_cosmetic":    lastRep.Tiers[2],
				"tier_degrades":     hub.DegradeTotal.Load(),
				"tier_upgrades":     hub.UpgradeTotal.Load(),
				"ghost_ships":       rt.GhostShipTotal.Load(),
				"ghost_field_skips": rt.GhostFieldSkipTotal.Load(),
				"hash":              fmt.Sprintf("%016x", hash),
			},
		})
		if err := metrics.WriteBenchJSON(os.Stdout, rep); err != nil {
			fmt.Fprintf(os.Stderr, "replicasim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("\ndone: %d ticks in %v (%.1f ticks/sec, %.2fM client-flushes/sec)\n",
		*ticks, elapsed.Round(time.Millisecond),
		float64(*ticks)/elapsed.Seconds(),
		float64(*clients)*float64(*ticks)/elapsed.Seconds()/1e6)
	fmt.Printf("fan-out: %.1f KB/tick, %.0f msgs/tick, %d snapshots, %d drops\n",
		float64(bytesTotal)/float64(*ticks)/1024, float64(msgsTotal)/float64(*ticks),
		snapsTotal, dropsTotal)
	fmt.Printf("staleness (ticks): p50=%.0f p99=%.0f over %d samples\n",
		p50, p99, hub.Staleness.Count())
	fmt.Printf("tiers: exact=%d coarse=%d cosmetic=%d (degrades=%d upgrades=%d)\n",
		lastRep.Tiers[0], lastRep.Tiers[1], lastRep.Tiers[2],
		hub.DegradeTotal.Load(), hub.UpgradeTotal.Load())
	fmt.Printf("world hash %016x (identical for any -shards/-workers)\n", hash)
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
