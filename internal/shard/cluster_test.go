package shard

import (
	"fmt"
	"testing"

	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// clusterCfg is the shared config of every wire-vs-in-process race in
// this file; the Runtime and the Cluster must receive the identical
// config for their hashes to be comparable.
func clusterCfg(shards int, conflict string) Config {
	return Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 25, Workers: 2,
		ScriptFuel: 1 << 20, ConflictPolicy: conflict,
	}
}

// runtimeHashes seeds an in-process Runtime and returns its per-tick
// hash trajectory (a hash after every step, not just the final one, so
// a divergence pins the exact tick it appeared), checking every shard
// world's invariants after each step.
func runtimeHashes(t *testing.T, cfg Config, seed func(*Runtime) error, ticks int) []uint64 {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := seed(rt); err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, 0, ticks)
	for i := 0; i < ticks; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatalf("runtime tick %d: %v", i+1, err)
		}
		checkWorlds(t, rt, fmt.Sprintf("runtime tick %d", i+1))
		hashes = append(hashes, rt.Hash())
	}
	return hashes
}

// shardWorlds is what Runtime and Cluster share for invariant checks.
type shardWorlds interface {
	Shards() int
	ShardWorld(i int) *world.World
}

// checkWorlds runs every shard world's invariant checker (the entity
// directory's: rows, grid slots, ghost marks and routes, behaviors).
func checkWorlds(t *testing.T, sw shardWorlds, when string) {
	t.Helper()
	for i := 0; i < sw.Shards(); i++ {
		if err := sw.ShardWorld(i).Check(); err != nil {
			t.Fatalf("%s, shard %d: %v", when, i, err)
		}
	}
}

// clusterHashes does the same over a wire cluster.
func clusterHashes(t *testing.T, cl *Cluster, seed func(*Cluster) error, ticks int) ([]uint64, StepStats) {
	t.Helper()
	t.Cleanup(func() { cl.Close() })
	if err := seed(cl); err != nil {
		t.Fatal(err)
	}
	var last StepStats
	hashes := make([]uint64, 0, ticks)
	for i := 0; i < ticks; i++ {
		st, err := cl.Step()
		if err != nil {
			t.Fatalf("cluster tick %d: %v", i+1, err)
		}
		last = st
		checkWorlds(t, cl, fmt.Sprintf("cluster tick %d", i+1))
		h, err := cl.Hash()
		if err != nil {
			t.Fatalf("cluster hash at tick %d: %v", i+1, err)
		}
		hashes = append(hashes, h)
	}
	return hashes, last
}

func compareHashes(t *testing.T, name string, want, got []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: wire hash diverged at tick %d: %x vs in-process %x", name, i+1, got[i], want[i])
		}
	}
}

// TestClusterMatchesRuntimeMingle pins the wire barrier to the
// in-process barrier on the apply-heavy mingle crowd: every tick's
// global hash must be bit-identical across 1/2/4-shard grids under
// both conflict policies, over the pipe transport.
func TestClusterMatchesRuntimeMingle(t *testing.T) {
	const ticks = 12
	for _, conflict := range []string{"", "occ"} {
		for _, shards := range []int{1, 2, 4} {
			cfg := clusterCfg(shards, conflict)
			want := runtimeHashes(t, cfg,
				func(rt *Runtime) error { return SeedMingleCrowd(rt, 250, 400, 77, 30) }, ticks)
			cl, err := NewPipeCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, st := clusterHashes(t, cl,
				func(cl *Cluster) error { return SeedMingleCluster(cl, 250, 400, 77, 30) }, ticks)
			name := "mingle/" + conflict
			compareHashes(t, name, want, got)
			if shards > 1 {
				if st.WireFrames == 0 || st.WireBytesOut == 0 || st.WireBytesIn == 0 {
					t.Fatalf("%s shards=%d: no wire traffic recorded in StepStats: %+v", name, shards, st)
				}
			}
		}
	}
}

// TestClusterMatchesRuntimeBorder races the adversarial cross-shard
// write scenario — RemoteEffectBatch traffic both directions every
// tick, OCC re-runs included — over the wire at 2 and 4 shards.
func TestClusterMatchesRuntimeBorder(t *testing.T) {
	const ticks = 12
	for _, conflict := range []string{"", "occ"} {
		for _, shards := range []int{2, 4} {
			cfg := clusterCfg(shards, conflict)
			cfg.GhostBand = 20
			cfg.GhostFields = BorderGhostFields()
			want := runtimeHashes(t, cfg,
				func(rt *Runtime) error { return SeedBorderCrowd(rt, 200, 400, 99, 25) }, ticks)
			cl, err := NewPipeCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, st := clusterHashes(t, cl,
				func(cl *Cluster) error { return SeedBorderCluster(cl, 200, 400, 99, 25) }, ticks)
			compareHashes(t, "border/"+conflict, want, got)
			if st.EffectsForwarded == 0 {
				t.Fatalf("border/%s shards=%d: no cross-shard effects forwarded — scenario not exercising the wire exchange", conflict, shards)
			}
		}
	}
}

// TestClusterMatchesRuntimeTCP runs the border race over real loopback
// sockets: same frames, same hashes, every byte through the kernel.
func TestClusterMatchesRuntimeTCP(t *testing.T) {
	const ticks = 8
	cfg := clusterCfg(2, "occ")
	cfg.GhostBand = 20
	cfg.GhostFields = BorderGhostFields()
	want := runtimeHashes(t, cfg,
		func(rt *Runtime) error { return SeedBorderCrowd(rt, 150, 400, 99, 25) }, ticks)
	cl, err := NewTCPCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := clusterHashes(t, cl,
		func(cl *Cluster) error { return SeedBorderCluster(cl, 150, 400, 99, 25) }, ticks)
	compareHashes(t, "border/tcp", want, got)
	ws := cl.WireStats()
	if ws.BytesOut == 0 || ws.BytesIn == 0 {
		t.Fatalf("tcp cluster moved no bytes: %+v", ws)
	}
}

// TestClusterRebalanceAndDrift exercises the counts round: a drifting
// crowd with periodic rebalancing must stay hash-identical — the
// lockstep partitioner replicas only stay replicas if every peer feeds
// Rebalance the identical global counts at the identical ticks.
func TestClusterRebalanceAndDrift(t *testing.T) {
	const ticks = 16
	cfg := clusterCfg(4, "")
	cfg.RebalanceEvery = 5
	cfg.RebalanceMaxShift = 8
	want := runtimeHashes(t, cfg,
		func(rt *Runtime) error { return SeedDriftingCrowd(rt, 300, 400, 41, 35) }, ticks)
	cl, err := NewPipeCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st := clusterHashes(t, cl,
		func(cl *Cluster) error { return SeedDriftingCluster(cl, 300, 400, 41, 35) }, ticks)
	compareHashes(t, "drift+rebalance", want, got)
	if st.Entities != 300 {
		t.Fatalf("cluster lost entities: %d of 300", st.Entities)
	}
}

// TestExchangeScratchReuse pins the satellite: the runtime's exchange
// scratch buffers must keep their backing arrays across barriers
// instead of reallocating per tick.
func TestExchangeScratchReuse(t *testing.T) {
	rt, err := New(clusterCfg(2, "occ"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := SeedBorderCrowd(rt, 150, 400, 99, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(rt.dstsBuf) == 0 {
		t.Fatalf("exchange scratch never materialized: dsts cap %d — scenario too quiet", cap(rt.dstsBuf))
	}
	dsts, counts := &rt.dstsBuf[:1][0], &rt.countsBuf[:1][0]
	for i := 0; i < 5; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if &rt.dstsBuf[:1][0] != dsts || &rt.countsBuf[:1][0] != counts {
		t.Fatal("exchange scratch reallocated across barriers — per-tick garbage crept back in")
	}
}
