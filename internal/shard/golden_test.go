package shard

import (
	"fmt"
	"hash/fnv"
	"testing"

	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// Hashes the legacy executions produced at commit 17685d7, the last one
// where they could be selected from a shard.Config: behaviors on the
// tree-walking interpreter (CompileBehaviors off), the row-at-a-time
// apply (RowApply), the direct trigger drain (DirectTriggers) and the
// full-scan ghost reconcile. All four arms — and the compiled, columnar,
// round-drained, incremental pipeline beside them — recorded the same
// trajectory at every Shards {1,2,4} × Workers {1,4} × {lastwrite, occ}
// cell, so one pair of constants per crowd pins the lot: final is the
// hash after the last tick, fold an FNV-style fold of every per-tick
// hash. The cascade crowd's pair is cascadeGoldenFinal/Fold
// (trigger_plan_test.go), recorded one PR earlier from the same crowd.
// The mingle crowd reads neighbours through default Coarse mirrors, so
// its state depends on whether there are mirrors at all.
const (
	mingleGoldenFinal1  = 0x7d5f32b06591ee6d // 1 shard
	mingleGoldenFold1   = 0xea4beb42990438bc
	mingleGoldenFinalN  = 0x5fd6f35a9795d230 // 2 and 4 shards
	mingleGoldenFoldN   = 0xae0968381b2e7a33
	mingleGoldenEffects = 15398

	cascadeGoldenEffects = 24000
	cascadeGoldenFired   = 32000

	borderGoldenFinal = 0xd4738eff8078730e
	borderGoldenFold  = 0x7ae3ea39843c3942
)

func mingleGolden(shards int) (final, fold uint64) {
	if shards == 1 {
		return mingleGoldenFinal1, mingleGoldenFold1
	}
	return mingleGoldenFinalN, mingleGoldenFoldN
}

// crowdRun is one grid cell's run of a golden crowd.
type crowdRun struct {
	final, fold              uint64
	effects, fired           int
	calls, compiled, retries int
}

// runGoldenCrowd drives the mingle, cascade or border crowd exactly as
// the goldens were recorded (mingleRun and cascadeRun are views of it,
// borderRun seeds the same border crowd) on the named transport
// (newGrid's "inprocess" or "tcp"), checks every shard world's entity
// directory and folds the hash after every tick.
func runGoldenCrowd(t *testing.T, crowd, transport string, shards, workers int, policy string) crowdRun {
	t.Helper()
	cfg := Config{Seed: 7, Shards: shards, TickDT: 0.5, GhostBand: 25, Workers: workers, ConflictPolicy: policy}
	var seed func(cl *Cluster) error
	ticks := 25
	switch crowd {
	case "mingle":
		cfg.World = spatial.NewRect(0, 0, 400, 400)
		cfg.ScriptFuel = 1 << 20
		seed = func(cl *Cluster) error { return seedMingle(cl, 250, 400, 77, 30) }
	case "cascade":
		cfg.World = spatial.NewRect(0, 0, 1000, 1000)
		seed = func(cl *Cluster) error { return seedCascade(cl, 200, 1000, 77, 30) }
		ticks = 40
	case "border":
		cfg.World = spatial.NewRect(0, 0, 400, 400)
		cfg.GhostBand = 20
		cfg.GhostFields = BorderGhostFields()
		seed = func(cl *Cluster) error { return seedBorder(cl, 240, 400, 77, 6) }
		ticks = 20
	default:
		t.Fatalf("unknown crowd %q", crowd)
	}
	cl, hash := newGrid(t, cfg, transport)
	if err := seed(cl); err != nil {
		t.Fatal(err)
	}
	cell := fmt.Sprintf("%s %s shards=%d workers=%d %s", crowd, transport, shards, workers, policy)
	run := crowdRun{fold: 14695981039346656037}
	for i := 0; i < ticks; i++ {
		st, err := cl.Step()
		if err != nil {
			t.Fatalf("%s tick %d: %v", cell, st.Tick, err)
		}
		for _, ws := range st.Shards {
			run.effects += ws.Effects
			run.fired += ws.TriggerFired
			run.calls += ws.ScriptCalls
			run.compiled += ws.CompiledCalls
			run.retries += ws.EffectRetries
			if ws.ScriptErrors+ws.ScriptSkips+ws.TriggerErrors > 0 {
				t.Fatalf("%s tick %d: failed invocations", cell, st.Tick)
			}
		}
		checkWorlds(t, cl, fmt.Sprintf("%s tick %d", cell, st.Tick))
		run.final = hash()
		run.fold = (run.fold ^ run.final) * 1099511628211
	}
	if crowd != "border" && shards > 1 && cl.HandoffTotal.Load() == 0 {
		t.Fatalf("%s: no handoffs — crowd not exercising boundaries", cell)
	}
	if shards > 1 && cl.WireStats().FramesOut == 0 {
		t.Fatalf("%s: no barrier frames crossed the mesh", cell)
	}
	return run
}

// TestLegacyGoldensAcrossGrid holds the one pipeline to the hashes the
// deleted modes produced, at every grid cell: Shards × Workers × policy
// × transport, the barrier's frames crossing the in-process pipe mesh
// or real loopback sockets. All three crowds' behaviors are fully
// compilable, so every behavior call must also have completed on its
// plan — an interpreter fallback creeping back in would still hash right
// and fails here instead.
func TestLegacyGoldensAcrossGrid(t *testing.T) {
	for _, crowd := range []string{"mingle", "cascade", "border"} {
		for _, policy := range []string{world.ConflictLastWrite, world.ConflictOCC} {
			for _, shards := range []int{1, 2, 4} {
				for _, workers := range []int{1, 4} {
					for _, transport := range []string{"inprocess", "tcp"} {
						goldenCell(t, crowd, transport, shards, workers, policy)
					}
				}
			}
		}
	}
}

// goldenCell runs one grid cell of TestLegacyGoldensAcrossGrid against
// its crowd's recorded constants.
func goldenCell(t *testing.T, crowd, transport string, shards, workers int, policy string) {
	t.Helper()
	got := runGoldenCrowd(t, crowd, transport, shards, workers, policy)
	cell := fmt.Sprintf("%s %s shards=%d workers=%d %s", crowd, transport, shards, workers, policy)
	var final, fold uint64
	switch crowd {
	case "mingle":
		final, fold = mingleGolden(shards)
		if got.effects != mingleGoldenEffects {
			t.Fatalf("%s: %d effects, recorded %d", cell, got.effects, mingleGoldenEffects)
		}
	case "cascade":
		final, fold = cascadeGoldenFinal, cascadeGoldenFold
		if got.effects != cascadeGoldenEffects || got.fired != cascadeGoldenFired {
			t.Fatalf("%s: %d effects %d activations, recorded %d and %d",
				cell, got.effects, got.fired, cascadeGoldenEffects, cascadeGoldenFired)
		}
	case "border":
		final, fold = borderGoldenFinal, borderGoldenFold
	}
	if got.final != final || got.fold != fold {
		t.Fatalf("%s: trajectory left the recorded one: final %#x fold %#x, want %#x %#x",
			cell, got.final, got.fold, final, fold)
	}
	if got.calls == 0 || got.compiled != got.calls {
		t.Fatalf("%s: %d of %d behavior calls completed on a plan", cell, got.compiled, got.calls)
	}
}

// Recorded at 17685d7 from the contended claim world below with
// behaviors interpreted (CompileBehaviors off): an FNV-1a of the final
// snapshot and the run's OCC accounting.
const (
	conflictGoldenSnap    = 0x28981a9d21367be1
	conflictGoldenCalls   = 2400
	conflictGoldenFuel    = 35777
	conflictGoldenRetries = 141
	conflictGoldenEffects = 5422
)

// TestConflictWorldOCCMatchesInterpreterGolden runs the contended claim
// scenario under the OCC policy: plans log the same (id, column)
// read-sets the interpreter did, so invalidation must pick the same
// losers, the re-runs — plan-first too — must converge to the recorded
// snapshot, and retry/abort/fuel accounting must repeat exactly.
func TestConflictWorldOCCMatchesInterpreterGolden(t *testing.T) {
	w := world.New(world.Config{
		Seed: 7, CellSize: 16, TickDT: 0.5, Workers: 4,
		ConflictPolicy: world.ConflictOCC,
	})
	if err := SeedConflictWorld(w, 120, 25, 200, 77); err != nil {
		t.Fatal(err)
	}
	var sum world.TickStats
	for i := 0; i < 20; i++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		sum.ScriptCalls += st.ScriptCalls
		sum.CompiledCalls += st.CompiledCalls
		sum.FuelUsed += st.FuelUsed
		sum.EffectRetries += st.EffectRetries
		sum.EffectAborts += st.EffectAborts
		sum.Effects += st.Effects
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(snap)
	if got := h.Sum64(); got != conflictGoldenSnap {
		t.Fatalf("occ snapshot %#x left the interpreter's recorded %#x", got, uint64(conflictGoldenSnap))
	}
	if sum.EffectRetries != conflictGoldenRetries || sum.EffectAborts != 0 || sum.Effects != conflictGoldenEffects {
		t.Fatalf("occ accounting diverged: retries %d aborts %d effects %d, recorded %d 0 %d",
			sum.EffectRetries, sum.EffectAborts, sum.Effects, conflictGoldenRetries, conflictGoldenEffects)
	}
	if sum.ScriptCalls != conflictGoldenCalls || sum.FuelUsed != conflictGoldenFuel {
		t.Fatalf("call accounting diverged: calls %d fuel %d, recorded %d %d",
			sum.ScriptCalls, sum.FuelUsed, conflictGoldenCalls, conflictGoldenFuel)
	}
	if sum.CompiledCalls != sum.ScriptCalls {
		t.Fatalf("%d of %d claim calls completed on a plan", sum.CompiledCalls, sum.ScriptCalls)
	}
}
