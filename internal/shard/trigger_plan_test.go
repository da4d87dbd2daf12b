package shard

import (
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// cascadeTrajectory runs the cascade crowd of the grid tests (200
// pulsers, 40 ticks) and returns the world hash after every tick.
func cascadeTrajectory(t *testing.T, shards, workers int, policy string) []uint64 {
	t.Helper()
	rt, err := New(Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 1000, 1000),
		TickDT: 0.5, GhostBand: 25, Workers: workers, ConflictPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c, errs := content.LoadAndCompile(strings.NewReader(CascadePackXML))
	if len(errs) > 0 {
		t.Fatalf("cascade pack: %v", errs)
	}
	if err := rt.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	if err := spawnMovers(rt, "pulser", 200, 1000, 77, 30); err != nil {
		t.Fatal(err)
	}
	var hashes []uint64
	for i := 0; i < 40; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatalf("shards=%d workers=%d %s tick %d: %v", shards, workers, policy, st.Tick, err)
		}
		for _, ws := range st.Shards {
			if ws.TriggerErrors+ws.TriggerSkips+ws.ScriptErrors > 0 {
				t.Fatalf("shards=%d workers=%d %s tick %d: failed invocations", shards, workers, policy, st.Tick)
			}
		}
		hashes = append(hashes, rt.Hash())
	}
	return hashes
}

// Recorded from the commit before trigger conditions and actions moved
// onto gslplan plans (1 shard × 1 worker, both policies): the hash
// after tick 40, and an FNV-style fold of all 40 per-tick hashes. The
// legacy modes' last commit and the interpreter-only run of this test,
// while one existed, reproduced both.
const (
	cascadeGoldenFinal = 0x4aa13f695d915bed
	cascadeGoldenFold  = 0x77b807f880a466bc
)

// TestCompiledTriggerHashTrajectoryAcrossGrid pins trigger execution two
// ways at once: the cascade crowd's per-tick hash trajectory is the same
// at every Shards × Workers × policy grid point, and it is the
// trajectory the interpreter-only commit recorded.
func TestCompiledTriggerHashTrajectoryAcrossGrid(t *testing.T) {
	want := cascadeTrajectory(t, 1, 1, world.ConflictLastWrite)
	fold := uint64(14695981039346656037)
	for _, h := range want {
		fold = (fold ^ h) * 1099511628211
	}
	if want[len(want)-1] != cascadeGoldenFinal || fold != cascadeGoldenFold {
		t.Fatalf("trajectory left the recorded one: final %#x fold %#x, want %#x %#x",
			want[len(want)-1], fold, uint64(cascadeGoldenFinal), uint64(cascadeGoldenFold))
	}
	for _, policy := range []string{world.ConflictLastWrite, world.ConflictOCC} {
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				got := cascadeTrajectory(t, shards, workers, policy)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d workers=%d %s: hash diverged at tick %d: %#x vs %#x",
							shards, workers, policy, i+1, got[i], want[i])
					}
				}
			}
		}
	}
}
