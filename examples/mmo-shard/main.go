// MMO shard: the paper's scale story end to end, in two acts.
//
// Act 1 — within one shard: a hotspot crowd moves around a large map;
// every tick the shard predicts reachability from velocity and
// acceleration bounds (EVE's differential-equation trick in closed
// form), partitions the map into causality bubbles, and executes that
// tick's interaction transactions bubble-parallel — racing the classic
// lock-based alternatives on the way.
//
// Act 2 — across shards: the same map is split into region shards by
// gamedb.New's Options.Shards; 1, 2, 4 and 8 shards race the identical
// seed-fixed crowd, with cross-shard handoff and ghost replication
// keeping the final world hash identical for every shard count.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gamedb"
	"gamedb/internal/bubble"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
	"gamedb/internal/txn"
	"gamedb/internal/workload"
)

func main() {
	singleShardBubbles()
	shardedRuntimeRace()
}

func singleShardBubbles() {
	const (
		players = 2000
		side    = 4000.0
	)
	rng := rand.New(rand.NewSource(2009))
	world := spatial.NewRect(0, 0, side, side)
	move := workload.NewHotspot(rng, players, world, 25, 5)
	cfg := bubble.Config{Horizon: 0.5, InteractRange: 20}
	workers := runtime.GOMAXPROCS(0)

	fmt.Printf("shard: %d players on a %.0f×%.0f map, %d workers\n\n",
		players, side, side, workers)

	// Let the crowd gather at the hotspots.
	for i := 0; i < 300; i++ {
		move.Step(0.1)
	}

	fmt.Println("tick  bubbles  largest  singleton%  partition-time")
	for tick := 1; tick <= 5; tick++ {
		move.Step(0.1)
		start := time.Now()
		part := bubble.Compute(move.BubbleEntities(), cfg)
		elapsed := time.Since(start)
		singles := 0
		for _, b := range part.Bubbles {
			if len(b) == 1 {
				singles++
			}
		}
		fmt.Printf("%4d  %7d  %7d  %9.1f%%  %s\n",
			tick, part.NumBubbles(), part.MaxSize(),
			100*float64(singles)/float64(part.NumBubbles()),
			elapsed.Round(time.Microsecond))
	}

	// One tick's worth of interaction transactions, executed five ways.
	part := bubble.Compute(move.BubbleEntities(), cfg)
	txns := workload.LocalTxns(move, 4, 300)
	groups := workload.GroupTxnsByBubble(part, txns)

	fmt.Printf("\nexecuting %d interaction txns:\n", len(txns))
	run := func(name string, ex txn.Executor) {
		store := txn.NewStore(players)
		start := time.Now()
		stats := ex.Run(store, txns, workers)
		fmt.Printf("  %-12s %8s  committed=%d aborted=%d\n",
			name, time.Since(start).Round(time.Microsecond), stats.Committed, stats.Aborted)
	}
	run("serial", txn.Serial{})
	run("global-lock", txn.GlobalLock{})
	run("2pl", txn.TwoPL{})
	run("occ", txn.OCC{})
	run("bubbles", txn.Partitioned{Groups: groups})

	fmt.Println("\nbubbles execute lock-free: distinct bubbles cannot conflict within the horizon.")
}

// shardedRuntimeRace splits the map into region shards and races shard
// counts over the identical seed-fixed crowd.
func shardedRuntimeRace() {
	const (
		players = 2000
		side    = 2000.0
		ticks   = 150
		seed    = 2009
	)
	fmt.Printf("\nsharded world runtime: %d players, %d ticks per shard count\n\n", players, ticks)
	fmt.Println("shards  ticks/sec  handoffs/tick  ghosts  world-hash")

	drift := shard.MustLookup("drift")
	var firstHash uint64
	hashesAgree := true
	for _, n := range []int{1, 2, 4, 8} {
		eng, err := gamedb.New(gamedb.Options{
			Seed:           seed,
			Shards:         n,
			World:          gamedb.NewRect(0, 0, side, side),
			TickDT:         0.5,
			GhostBand:      24,
			RebalanceEvery: 25,
		})
		if err != nil {
			panic(err)
		}
		rt := eng.Runtime()
		// Seed-fixed spawn stream: identical crowd for every shard count.
		if err := drift.Seed(rt, shard.Crowd{Units: players, Side: side, Seed: seed}); err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < ticks; i++ {
			if _, err := eng.Tick(); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start)
		hash := eng.Hash()
		if n == 1 {
			firstHash = hash
		}
		mark := "✓"
		if hash != firstHash {
			mark = "✗"
			hashesAgree = false
		}
		fmt.Printf("%6d  %9.1f  %13.2f  %6d  %016x %s\n",
			n, float64(ticks)/elapsed.Seconds(),
			float64(rt.HandoffTotal.Load())/float64(ticks), rt.Ghosts(), hash, mark)
		eng.Close()
	}
	if hashesAgree {
		fmt.Println("\nhandoff + ghost replication keep the world hash identical for every shard count.")
	} else {
		fmt.Println("\nFAIL: world hash diverged across shard counts.")
		os.Exit(1)
	}
}
