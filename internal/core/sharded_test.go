package core

import (
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/persist"
	"gamedb/internal/shard"
	"gamedb/internal/spatial"
)

const shardedPackXML = `
<contentpack name="drift">
  <schema table="units">
    <column name="hp" kind="int" default="100"/>
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float" default="12.5"/>
    <column name="vy" kind="float"/>
  </schema>
  <archetype name="npc" table="units"/>
  <spawn archetype="npc" count="40" x="500" y="500" spread="450"/>
</contentpack>`

// driftOptions is the drift pack's engine configuration on n shards.
func driftOptions(shards, workers int) Options {
	return Options{
		Seed:      9,
		Shards:    shards,
		Workers:   workers,
		World:     spatial.NewRect(0, 0, 1000, 1000),
		TickDT:    1,
		GhostBand: 30,
	}
}

func newSharded(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.LoadPackXML(strings.NewReader(shardedPackXML)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestShardedEngineLifecycle(t *testing.T) {
	e := newSharded(t, driftOptions(4, 1))
	if got := e.Entities(); got != 40 {
		t.Fatalf("entities = %d, want 40", got)
	}
	// The pack's spawns land on the shard owning each position, not on
	// every shard.
	perShard := 0
	for i := 0; i < e.Runtime().Shards(); i++ {
		perShard += e.ShardWorld(i).LocalEntities()
	}
	if perShard != 40 {
		t.Fatalf("sum of shard-local entities = %d, want 40", perShard)
	}
	st, err := e.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 1 || st.Entities != 40 {
		t.Fatalf("step stats = %+v", st)
	}
}

func TestShardedEngineHashMatchesSingleShard(t *testing.T) {
	// The same pack + seed must produce identical state digests on 1
	// and 4 shards after entities drift across boundaries (vx default
	// 12.5 pushes everyone rightward through the vertical splits).
	e1, e4 := newSharded(t, driftOptions(1, 1)), newSharded(t, driftOptions(4, 1))
	for i := 0; i < 30; i++ {
		if _, err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := e4.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if e1.Hash() != e4.Hash() {
		t.Fatalf("hash diverged: 1 shard %x, 4 shards %x", e1.Hash(), e4.Hash())
	}
	if e4.Runtime().HandoffTotal.Load() == 0 {
		t.Fatal("scenario produced no handoffs")
	}
	if e1.Entities() != e4.Entities() {
		t.Fatalf("entity totals diverged: %d vs %d", e1.Entities(), e4.Entities())
	}
}

func TestShardedEngineHashInvariantUnderWorkers(t *testing.T) {
	// Seed reproducibility must hold on the full (shards × workers)
	// grid, not just across shard counts.
	mk := func(shards, workers int) *Engine {
		e := newSharded(t, driftOptions(shards, workers))
		for i := 0; i < 25; i++ {
			if _, err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	base := mk(1, 1).Hash()
	if got := mk(4, 4).Hash(); got != base {
		t.Fatalf("hash diverged: 1 shard/1 worker %x, 4 shards/4 workers %x", base, got)
	}
}

func TestShardedRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Shards: 2}); err == nil {
		t.Fatal("zero-area world should be rejected")
	}
	e, err := New(Options{Shards: 0, World: spatial.NewRect(0, 0, 10, 10)})
	if err != nil {
		t.Fatalf("0 shards should default to 1, got %v", err)
	}
	if e.Runtime().Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", e.Runtime().Shards())
	}
	e.Close()
}

// TestEngineCrashRecoverAcrossShards: a crash at tick 25 rolls every
// shard back to the tick-20 checkpoint, and the replayed run is the
// uninterrupted one at every tick from 21 to 40. Both crowds move region
// boundaries every 5 ticks and hand units across them. The mingle crowd
// reads its neighbours through Coarse ghost mirrors, whose values lag by
// what the ghost-ship bookkeeping last shipped and whose coverage
// follows the boundaries. Each run also spawns a unit after tick 22,
// through the coordinator's id stream. A restore that dropped the
// bookkeeping, the boundaries, the tick or the id stream would show in
// the hashes.
func TestEngineCrashRecoverAcrossShards(t *testing.T) {
	crowds := []struct {
		name  string
		opts  Options
		seed  func(e *Engine) error
		spawn string // the archetype spawned after tick 22
	}{
		{
			name:  "drift-rebalance",
			opts:  Options{Seed: 9, World: spatial.NewRect(0, 0, 1000, 1000), TickDT: 1, GhostBand: 30, RebalanceEvery: 5},
			seed:  func(e *Engine) error { return e.LoadPackXML(strings.NewReader(shardedPackXML)) },
			spawn: "npc",
		},
		{
			name: "mingle-coarse-ghosts",
			opts: Options{Seed: 9, World: spatial.NewRect(0, 0, 240, 240), RebalanceEvery: 5},
			seed: func(e *Engine) error {
				return shard.MustLookup("mingle").Seed(e.Runtime(), shard.Crowd{Units: 500, Side: 240, Seed: 9})
			},
			spawn: "unit",
		},
	}
	for _, cr := range crowds {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards-%d", cr.name, shards), func(t *testing.T) {
				run := func(crash bool) (hashes [41]uint64, e *Engine) {
					opts := cr.opts
					opts.Shards = shards
					opts.Checkpoint = persist.Periodic{EveryTicks: 10}
					e, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(e.Close)
					if err := cr.seed(e); err != nil {
						t.Fatal(err)
					}
					for crashed := false; e.Runtime().Tick() < 40; {
						if crash && !crashed && e.Runtime().Tick() == 25 {
							crashed = true
							if lost, err := e.CrashAndRecover(); err != nil || lost != 5 {
								t.Fatalf("lost = %d, %v; want 5", lost, err)
							}
							if got := e.Hash(); got != hashes[20] {
								t.Fatalf("restored tick-20 hash %016x, the run had %016x", got, hashes[20])
							}
							continue
						}
						st, err := e.Tick()
						if err != nil {
							t.Fatal(err)
						}
						if st.Tick == 22 {
							if _, err := e.Spawn(cr.spawn, spatial.Vec2{X: 120, Y: 120}); err != nil {
								t.Fatal(err)
							}
						}
						hashes[st.Tick] = e.Hash()
					}
					return hashes, e
				}
				want, ref := run(false)
				got, _ := run(true)
				for tick := 21; tick <= 40; tick++ {
					if got[tick] != want[tick] {
						t.Fatalf("tick %d: recovered run %016x, uninterrupted %016x", tick, got[tick], want[tick])
					}
				}
				if shards > 1 {
					rt := ref.Runtime()
					if rt.HandoffTotal.Load() == 0 || rt.GhostSnapshotTotal.Load() == 0 {
						t.Fatalf("crowd too quiet: %d handoffs, %d ghosts created", rt.HandoffTotal.Load(), rt.GhostSnapshotTotal.Load())
					}
				}
			})
		}
	}
}
