package experiment

import (
	"fmt"
	"runtime"

	"gamedb/internal/bubble"
	"gamedb/internal/combat"
	"gamedb/internal/metrics"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/txn"
	"gamedb/internal/workload"
)

// E4Concurrency races the concurrency-control schemes on a hotspot
// workload across world densities: dense worlds give one giant bubble
// (no free parallelism), sparse worlds give many small bubbles that beat
// every locking scheme.
func E4Concurrency(quick bool) *metrics.Table {
	t := metrics.NewTable("E4/F3 — concurrency control on local-interaction txns (hotspot world)",
		"n", "world", "bubbles", "maxBubble", "serial", "global", "2pl", "occ(aborts)", "bubbles(par)", "lock-tax(2pl/bubbles)")
	t.Note = "paper: locking txns too slow for games; bubbles need no locks at all. " +
		"On a single-core host the parallel upside is flat by construction; the lock tax remains."
	n := pick(quick, 600, 3000)
	workers := runtime.GOMAXPROCS(0)
	ticksOfWarmup := pick(quick, 50, 200)
	for _, side := range []float64{400, 2000, 10000} {
		rng := newRng(500 + int64(side))
		world := spatial.NewRect(0, 0, side, side)
		move := workload.NewHotspot(rng, n, world, 20, 6)
		for i := 0; i < ticksOfWarmup; i++ {
			move.Step(0.1)
		}
		cfg := bubble.Config{Horizon: 0.5, InteractRange: 15}
		part := bubble.Compute(move.BubbleEntities(), cfg)
		txns := workload.LocalTxns(move, 4, 300)
		groups := workload.GroupTxnsByBubble(part, txns)

		type res struct {
			d     float64
			stats txn.Stats
		}
		run := func(ex txn.Executor, w int) res {
			s := txn.NewStore(n)
			var st txn.Stats
			d := timeOp(func() { st = ex.Run(s, txns, w) })
			return res{float64(d.Nanoseconds()), st}
		}
		serial := run(txn.Serial{}, 1)
		global := run(txn.GlobalLock{}, workers)
		twoPL := run(txn.TwoPL{}, workers)
		occ := run(txn.OCC{}, workers)
		bub := run(txn.Partitioned{Groups: groups}, workers)

		t.AddRow(
			fmt.Sprint(n),
			metrics.Fnum(side),
			fmt.Sprint(part.NumBubbles()),
			fmt.Sprint(part.MaxSize()),
			metrics.Fdur(serial.d),
			metrics.Fdur(global.d),
			metrics.Fdur(twoPL.d),
			fmt.Sprintf("%s(%d)", metrics.Fdur(occ.d), occ.stats.Aborted),
			metrics.Fdur(bub.d),
			metrics.Fnum(twoPL.d/bub.d)+"x",
		)
	}
	return t
}

// E5ConsistencyTiers sweeps the Coarse tier's epsilon and reports
// bandwidth against worst-case divergence, alongside the Exact and
// Cosmetic tiers under the same movement. The clients are the
// replica.Hub's, priced by wire encoding, with a budget that drains
// every queue each tick, so each client holds the hub's shipped
// baseline and Hub.Divergence is the furthest any of them lags.
func E5ConsistencyTiers(quick bool) *metrics.Table {
	t := metrics.NewTable("E5/F4 — consistency tiers: bandwidth vs divergence (coarse-ε sweep)",
		"epsilon", "msgs/tick/client", "bytes/tick/client", "max div (coarse x)", "max div (exact hp)")
	t.Note = "paper: uncontested state may diverge while persistent state stays exact; " +
		"coarse divergence is bounded by ε, exact divergence is always 0"
	nEnt := pick(quick, 150, 400)
	nClients := pick(quick, 8, 32)
	ticks := pick(quick, 150, 400)
	for _, eps := range []float64{0.5, 2, 8} {
		hub := replica.NewHub(replica.HubConfig{
			Specs: []replica.FieldSpec{
				{Name: "hp", Class: replica.Exact},
				{Name: "x", Class: replica.Coarse, Epsilon: eps, MaxAge: 200},
				{Name: "anim", Class: replica.Cosmetic, Period: 8},
			},
			Cell:       250,
			ByteBudget: 1 << 30,
		})
		rng := newRng(600 + int64(eps*10))
		world := spatial.NewRect(0, 0, 1000, 1000)
		move := workload.NewRandomWaypoint(rng, nEnt, world, 15)
		vals := make([]float64, 3)
		for _, mv := range move.Movers {
			hub.SpawnEntity(mv.ID, mv.Pos, vals)
		}
		clients := make([]*replica.Conn, nClients)
		for i := range clients {
			focus := spatial.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			clients[i] = hub.AddClient(i, focus, 400, 0)
		}
		for tick := 0; tick < ticks; tick++ {
			move.Step(0.1)
			hub.BeginTick(int64(tick + 1))
			for _, mv := range move.Movers {
				vals[0], vals[1], vals[2] = float64(100-tick%50), mv.Pos.X, float64(tick%16)
				hub.UpdateEntity(mv.ID, mv.Pos, vals)
			}
			hub.FlushTick()
		}
		maxDivX, _ := hub.Divergence("x")
		maxDivHP, _ := hub.Divergence("hp")
		var msgs, bytes int64
		for _, c := range clients {
			msgs += c.Msgs
			bytes += c.Bytes
		}
		perTickClient := float64(msgs) / float64(ticks) / float64(nClients)
		bytesPer := float64(bytes) / float64(ticks) / float64(nClients)
		t.AddRow(metrics.Fnum(eps), metrics.Fnum(perTickClient),
			metrics.Fnum(bytesPer), metrics.Fnum(maxDivX), metrics.Fnum(maxDivHP))
	}
	return t
}

// E6Aggro pits threat-table targeting against nearest-enemy targeting
// under per-client position jitter, measuring target stability and
// cross-client agreement — the paper's "combat without exact spatial
// fidelity".
func E6Aggro(quick bool) *metrics.Table {
	t := metrics.NewTable("E6/T2 — boss targeting under client-view jitter",
		"policy", "target switches", "client disagreement", "cost/tick")
	t.Note = "paper: WoW aggro assigns abstract roles so combat needs no exact spatial fidelity"
	ticks := pick(quick, 500, 2000)
	const nClients = 8
	rng := newRng(700)
	raid := workload.NewRaid(rng, 25, int64(ticks)*2000)

	// Threat policy: driven by the shared (replicated-exact) threat
	// events, identical on every client, so clients agree by
	// construction. The boss stands inside the melee cluster, where
	// several attackers are near-equidistant — the regime in which
	// spatial targeting flaps.
	bossPos := spatial.Vec2{X: 10, Y: 0}
	nearest := make([]*combat.NearestPolicy, nClients)
	for i := range nearest {
		nearest[i] = &combat.NearestPolicy{}
	}
	var nearestDisagree int
	jitterRng := newRng(701)

	threatCost := timeOp(func() {
		for tick := 0; tick < ticks && !raid.Finished(); tick++ {
			raid.Step()
			raid.Boss.Target(combat.MeleeSwitchFactor)
		}
	})
	threatSwitches := raid.Boss.Switches

	// Nearest policy: each client sees jittered positions.
	raid2 := workload.NewRaid(newRng(700), 25, int64(ticks)*2000)
	nearestCost := timeOp(func() {
		for tick := 0; tick < ticks && !raid2.Finished(); tick++ {
			raid2.Step()
			var first combat.ID
			agree := true
			for ci := 0; ci < nClients; ci++ {
				pts := raid2.AlivePoints(jitterRng, 1.0)
				tgt, ok := nearest[ci].Target(bossPos, pts)
				if !ok {
					continue
				}
				if ci == 0 {
					first = tgt
				} else if tgt != first {
					agree = false
				}
			}
			if !agree {
				nearestDisagree++
			}
		}
	})
	var nearestSwitches int64
	for _, np := range nearest {
		nearestSwitches += np.Switches
	}
	nearestSwitches /= nClients

	t.AddRow("threat table (aggro)",
		fmt.Sprint(threatSwitches),
		"0%",
		metrics.Fdur(float64(threatCost.Nanoseconds())/float64(ticks)))
	t.AddRow("nearest enemy (spatial)",
		fmt.Sprint(nearestSwitches),
		metrics.Fnum(100*float64(nearestDisagree)/float64(ticks))+"%",
		metrics.Fdur(float64(nearestCost.Nanoseconds())/float64(ticks)))
	return t
}
