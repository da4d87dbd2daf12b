package shard

import (
	"fmt"
	"testing"

	"gamedb/internal/spatial"
)

// TestDirectoryAcrossHandoffAndRestore runs the drift crowd (eight
// shards, handoffs every tick, rebalancing) and the border crowd
// (cross-shard writes into routed mirrors) with every shard world's
// entity directory checked after every tick. Midway each shard world
// crashes (ResetState) and restores from its own snapshot: the
// directory must come back whole, the next barrier must re-route every
// mirror, and the run must stay on the uninterrupted run's hash
// trajectory.
func TestDirectoryAcrossHandoffAndRestore(t *testing.T) {
	crowds := []struct {
		name  string
		cfg   Config
		sc    *Scenario
		crowd Crowd
	}{
		{"drift", Config{
			Seed: 41, Shards: 8, World: spatial.NewRect(0, 0, 400, 400), TickDT: 0.5,
			GhostBand: 25, RebalanceEvery: 5, RebalanceMaxShift: 8,
		}, driftScenario, Crowd{Units: 600, Side: 400, Seed: 41, Speed: 35}},
		{"border", Config{
			Seed: 99, Shards: 4, World: spatial.NewRect(0, 0, 400, 400), TickDT: 0.5,
			GhostBand: 20, GhostFields: borderScenario.GhostFields, ScriptFuel: 1 << 20,
		}, borderScenario, Crowd{Units: 200, Side: 400, Seed: 99, Speed: 25}},
	}
	const ticks, crashAt = 24, 10
	for _, c := range crowds {
		run := func(crash bool) ([]uint64, int64) {
			rt, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			if err := c.sc.Seed(rt, c.crowd); err != nil {
				t.Fatal(err)
			}
			checkWorlds(t, rt, c.name+" seeded")
			var hashes []uint64
			for i := 1; i <= ticks; i++ {
				if _, err := rt.Step(); err != nil {
					t.Fatalf("%s tick %d: %v", c.name, i, err)
				}
				checkWorlds(t, rt, fmt.Sprintf("%s tick %d", c.name, i))
				hashes = append(hashes, rt.Hash())
				if !crash || i != crashAt {
					continue
				}
				for si := 0; si < rt.Shards(); si++ {
					w := rt.ShardWorld(si)
					snap, err := w.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					w.ResetState()
					checkWorlds(t, rt, fmt.Sprintf("%s shard %d reset", c.name, si))
					if err := w.Restore(snap); err != nil {
						t.Fatal(err)
					}
				}
				checkWorlds(t, rt, c.name+" restored")
			}
			return hashes, rt.HandoffTotal.Load()
		}
		want, handoffs := run(false)
		got, _ := run(true)
		if handoffs == 0 {
			t.Fatalf("%s: no handoffs — crowd not crossing boundaries", c.name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: restored run left the trajectory at tick %d: %x, want %x", c.name, i+1, got[i], want[i])
			}
		}
	}
}
