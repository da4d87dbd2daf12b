package shard

import (
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// cascadeTrajectory runs the cascade crowd of the grid tests (200
// pulsers, 40 ticks) and returns the world hash after every tick plus
// the run's total of plan-completed invocations (behavior calls and
// trigger sides). interpretOnly
// loads the pack with every plan removed — the pulse behavior's and the
// rules' — so the whole tick runs on the interpreter, which only a test
// can arrange.
func cascadeTrajectory(t *testing.T, shards, workers int, policy string, interpretOnly bool) ([]uint64, int) {
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
	if interpretOnly {
		for _, cs := range c.Scripts {
			cs.Plan = nil
		}
		for _, ct := range c.Triggers {
			ct.CondPlan, ct.ActPlan = nil, nil
		}
	}
	if err := rt.LoadPack(c); err != nil {
		t.Fatal(err)
	}
	if err := spawnMovers(rt, "pulser", 200, 1000, 77, 30); err != nil {
		t.Fatal(err)
	}
	var hashes []uint64
	compiled := 0
	for i := 0; i < 40; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatalf("shards=%d workers=%d %s tick %d: %v", shards, workers, policy, st.Tick, err)
		}
		for _, ws := range st.Shards {
			compiled += ws.TriggerCompiled + ws.CompiledCalls
			if ws.TriggerErrors+ws.TriggerSkips+ws.ScriptErrors > 0 {
				t.Fatalf("shards=%d workers=%d %s tick %d: failed invocations", shards, workers, policy, st.Tick)
			}
		}
		hashes = append(hashes, rt.Hash())
	}
	return hashes, compiled
}

// Recorded from the commit before trigger conditions and actions moved
// onto gslplan plans (1 shard × 1 worker, both policies): the hash
// after tick 40, and an FNV-style fold of all 40 per-tick hashes. The
// legacy modes' last commit reproduced both (golden_test.go).
const (
	cascadeGoldenFinal = 0x4aa13f695d915bed
	cascadeGoldenFold  = 0x77b807f880a466bc
)

// TestCompiledTriggerHashTrajectoryAcrossGrid pins compiled trigger
// execution three ways at once. The cascade crowd's per-tick hash
// trajectory is the same at every Shards × Workers × policy grid point;
// it is the trajectory of the same crowd with every condition and
// action interpreted; and it is the trajectory the interpreter-only
// parent commit produced.
func TestCompiledTriggerHashTrajectoryAcrossGrid(t *testing.T) {
	want, compiled := cascadeTrajectory(t, 1, 1, world.ConflictLastWrite, true)
	if compiled != 0 {
		t.Fatalf("plan-less pack completed %d invocations on plans", compiled)
	}
	fold := uint64(14695981039346656037)
	for _, h := range want {
		fold = (fold ^ h) * 1099511628211
	}
	if want[len(want)-1] != cascadeGoldenFinal || fold != cascadeGoldenFold {
		t.Fatalf("interpreted trajectory left the recorded one: final %#x fold %#x, want %#x %#x",
			want[len(want)-1], fold, uint64(cascadeGoldenFinal), uint64(cascadeGoldenFold))
	}
	for _, policy := range []string{world.ConflictLastWrite, world.ConflictOCC} {
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				got, compiled := cascadeTrajectory(t, shards, workers, policy, false)
				if compiled == 0 {
					t.Fatalf("shards=%d workers=%d %s: no invocation completed on a plan", shards, workers, policy)
				}
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
