package shard

import (
	"hash/fnv"
	"testing"

	"gamedb/internal/world"
)

// Trajectories the legacy executions produced at commit 17685d7, the
// last one where they could be selected from a shard.Config: behaviors
// on the tree-walking interpreter (CompileBehaviors off), the
// row-at-a-time apply (RowApply), the direct trigger drain
// (DirectTriggers) and the full-scan ghost reconcile. All four arms —
// and the compiled, columnar, round-drained, incremental pipeline beside
// them — recorded the same trajectory at every Shards {1,2,4} × Workers
// {1,4} × {lastwrite, occ} cell, so one pair of constants per crowd pins
// the lot: final is the state digest (world.Digest summed over the
// shards) after the last tick, fold an FNV-style fold of every per-tick
// digest. 17685d7 recorded the trajectories under the sorted FNV-64a
// row hash the digest replaced; the pairs below were re-recorded at the
// commit before the digest, each from a run whose old-hash final and
// fold equalled the 17685d7 pins. The cascade crowd's pair is
// cascadeGoldenFinal/Fold (trigger_plan_test.go), recorded one PR
// earlier from the same crowd.
// The mingle crowd reads neighbours through default Coarse mirrors, so
// its state depends on whether there are mirrors at all. The effect
// counts are the recorded totals less the physics records (one per
// moving axis) the pipeline emitted until velocity integration left the
// record stream: 12 500 on mingle, 16 000 on cascade, 4 800 on the claim
// world below.
const (
	mingleGoldenFinal1  = 0x10cf2863f30740ad // 1 shard
	mingleGoldenFold1   = 0x8276adc6f55891b1
	mingleGoldenFinalN  = 0xf2cddafafb28d077 // 2 and 4 shards
	mingleGoldenFoldN   = 0x24952fa8ab61aa0f
	mingleGoldenEffects = 2898

	cascadeGoldenEffects = 8000
	cascadeGoldenFired   = 32000

	borderGoldenFinal = 0x080b8a337375e18d
	borderGoldenFold  = 0xc7960ae646043ade
)

func mingleGolden(shards int) (final, fold uint64) {
	if shards == 1 {
		return mingleGoldenFinal1, mingleGoldenFold1
	}
	return mingleGoldenFinalN, mingleGoldenFoldN
}

// Recorded at 17685d7 from the contended claim world below with
// behaviors interpreted (CompileBehaviors off): an FNV-1a of the final
// snapshot and the run's OCC accounting.
const (
	conflictGoldenSnap    = 0x28981a9d21367be1
	conflictGoldenCalls   = 2400
	conflictGoldenFuel    = 35777
	conflictGoldenRetries = 141
	conflictGoldenEffects = 622
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
	if err := conflictScenario.Seed(WorldSeeder{w}, Crowd{Units: 120, Side: 200, Seed: 77, Beacons: 25}); err != nil {
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
