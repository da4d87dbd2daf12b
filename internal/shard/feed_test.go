package shard

// Tests for change-feed-driven incremental ghost reconcile: hash
// inertness across the reconcile-mode × workers × shards grid, exact
// ship-for-ship equivalence against the full scan, non-numeric ghost
// field shipping, and the tainted-feed fallback after a snapshot
// restore.

import (
	"reflect"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
)

// reconcileName labels a refresh strategy in failure messages.
func reconcileName(fullScan bool) string {
	if fullScan {
		return "fullscan"
	}
	return "incremental"
}

// feedRun drives one scenario under the incremental refresh or —
// fullScan, the unexported Runtime field only these tests set — the
// full band sweep, and returns the final hash.
func feedRun(t *testing.T, scenario string, fullScan bool, shards, workers int) uint64 {
	t.Helper()
	cfg := Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 20, Workers: workers,
	}
	if scenario == "border" {
		cfg.GhostFields = BorderGhostFields()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.fullScan = fullScan
	if scenario == "border" {
		err = SeedBorderCrowd(rt, 240, 400, 77, 6)
	} else {
		err = SeedMingleCrowd(rt, 200, 400, 77, 40)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if st, err := rt.Step(); err != nil {
			t.Fatalf("%s/%s shards=%d workers=%d tick %d: %v",
				scenario, reconcileName(fullScan), shards, workers, st.Tick, err)
		}
	}
	return rt.Hash()
}

// TestFeedReconcileHashInvariantAcrossGrid pins the tentpole inertness
// claim: at every scenario × shards × workers grid point, switching the
// ghost refresh from the full band sweep to the dirty-set-driven
// incremental path must not move the world hash. The feed is an index,
// never an input. Border (all-Exact ghost fields) additionally stays on
// the single-shard hash at every shard count; mingle's default Coarse
// mirrors are deliberately shard-count-dependent (the paper's weakened
// consistency), so there only the mode equivalence is asserted.
func TestFeedReconcileHashInvariantAcrossGrid(t *testing.T) {
	borderBase := feedRun(t, "border", true, 1, 1)
	for _, scenario := range []string{"border", "mingle"} {
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 2, 4} {
				full := feedRun(t, scenario, true, shards, workers)
				inc := feedRun(t, scenario, false, shards, workers)
				if inc != full {
					t.Fatalf("%s: incremental hash diverged from fullscan at shards=%d workers=%d: %x vs %x",
						scenario, shards, workers, inc, full)
				}
				if scenario == "border" && full != borderBase {
					t.Fatalf("border: fullscan hash diverged from 1-shard base at shards=%d workers=%d: %x vs %x",
						shards, workers, full, borderBase)
				}
			}
		}
	}
}

// shipEvt is one observed ghost field ship: barrier tick, destination
// shard, entity and field index — the full identity of a mirror write.
type shipEvt struct {
	tick int64
	di   int
	id   entity.ID
	fi   int
}

// equivSpecs exercises every consistency class the due index has to
// model: Coarse with a short staleness deadline (dues at sentTick +
// MaxAge), Exact on int and float columns, and Cosmetic on a period
// schedule (dues at period multiples).
func equivSpecs() []replica.FieldSpec {
	return []replica.FieldSpec{
		{Name: "x", Class: replica.Coarse, Epsilon: 2.0, MaxAge: 3},
		{Name: "y", Class: replica.Coarse, Epsilon: 2.0, MaxAge: 3},
		{Name: "hp", Class: replica.Exact},
		{Name: "kind", Class: replica.Exact},
		{Name: "kb", Class: replica.Cosmetic, Period: 4},
	}
}

// shipLog runs the border crowd for 25 ticks under one refresh strategy,
// recording every ghost field ship the barrier performs plus per-tick
// ship/snapshot counts, and the final hash.
func shipLog(t *testing.T, fullScan bool) (log []shipEvt, counts [][2]int, hash uint64) {
	t.Helper()
	rt, err := New(Config{
		Seed: 7, Shards: 4, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 20, Workers: 2,
		GhostFields: equivSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.fullScan = fullScan
	rt.onShip = func(di int, id entity.ID, fi int) {
		log = append(log, shipEvt{tick: rt.Tick(), di: di, id: id, fi: fi})
	}
	if err := SeedBorderCrowd(rt, 240, 400, 77, 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		st, err := rt.Step()
		if err != nil {
			t.Fatalf("reconcile=%s tick %d: %v", reconcileName(fullScan), st.Tick, err)
		}
		counts = append(counts, [2]int{st.GhostShips, st.GhostSnapshots})
	}
	return log, counts, rt.Hash()
}

// TestIncrementalReconcileShipEquivalence pins the exactness argument,
// not just the hash: the incremental path (dirty-set candidates plus
// the due-tick index) must perform the *same ships in the same order*
// as the full per-field band sweep — every (tick, shard, entity, field)
// mirror write, ship for ship. Coarse fields with a 3-tick MaxAge and
// Cosmetic fields on a 4-tick period make the time-driven dues
// load-bearing: drop the due index and declined-but-diverged values
// never surface, which this test catches as a missing log entry.
func TestIncrementalReconcileShipEquivalence(t *testing.T) {
	fullLog, fullCounts, fullHash := shipLog(t, true)
	incLog, incCounts, incHash := shipLog(t, false)
	if len(fullLog) == 0 {
		t.Fatal("full scan performed no ghost ships — scenario not exercising the band")
	}
	if incHash != fullHash {
		t.Fatalf("hash diverged: incremental %x vs fullscan %x", incHash, fullHash)
	}
	if !reflect.DeepEqual(incCounts, fullCounts) {
		t.Fatalf("per-tick (ships, snapshots) diverged:\nincremental %v\nfullscan    %v", incCounts, fullCounts)
	}
	if len(incLog) != len(fullLog) {
		t.Fatalf("ship count diverged: incremental %d vs fullscan %d", len(incLog), len(fullLog))
	}
	for i := range fullLog {
		if incLog[i] != fullLog[i] {
			t.Fatalf("ship %d diverged: incremental %+v vs fullscan %+v", i, incLog[i], fullLog[i])
		}
	}
}

// nonNumericWorld builds a 2-shard runtime (boundary at x = 100) with a
// raw table holding string columns, an entity just inside the border
// band, and string fields in the ghost specs: label as Exact, mood as
// Coarse (unshippable — no numeric distance).
func nonNumericWorld(t *testing.T, fullScan bool) (*Runtime, entity.ID) {
	t.Helper()
	rt, err := New(Config{
		Seed: 3, Shards: 2, World: spatial.NewRect(0, 0, 200, 100),
		CellSize: 16, TickDT: 0.5, GhostBand: 40,
		GhostFields: []replica.FieldSpec{
			{Name: "x", Class: replica.Coarse, Epsilon: 0.1, MaxAge: 5},
			{Name: "label", Class: replica.Exact},
			{Name: "mood", Class: replica.Coarse, Epsilon: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.fullScan = fullScan
	schema := entity.MustSchema(
		entity.Column{Name: "x", Kind: entity.KindFloat},
		entity.Column{Name: "y", Kind: entity.KindFloat},
		entity.Column{Name: "label", Kind: entity.KindString},
		entity.Column{Name: "mood", Kind: entity.KindString},
	)
	for i := 0; i < rt.Shards(); i++ {
		if _, err := rt.ShardWorld(i).CreateTable("npcs", schema); err != nil {
			t.Fatal(err)
		}
	}
	id, err := rt.SpawnRaw("npcs", map[string]entity.Value{
		"x": entity.Float(95), "y": entity.Float(50),
		"label": entity.Str("alpha"), "mood": entity.Str("calm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	return rt, id
}

// TestNonNumericGhostFieldShips pins the satellite fix: a string column
// under an Exact spec ships by equality instead of being silently
// skipped, while non-Exact classes on non-numeric columns (no distance
// to compare against an epsilon) count into GhostFieldSkips rather
// than wedging or clobbering. Runs under both refresh strategies.
func TestNonNumericGhostFieldShips(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		reconcile := reconcileName(fullScan)
		rt, id := nonNumericWorld(t, fullScan)
		w0, w1 := rt.ShardWorld(0), rt.ShardWorld(1)
		if !w1.IsGhost(id) {
			t.Fatalf("reconcile=%s: entity at x=95 has no ghost mirror on shard 1", reconcile)
		}
		if got, _ := w1.Get(id, "label"); got != entity.Str("alpha") {
			t.Fatalf("reconcile=%s: initial mirror label = %v, want alpha", reconcile, got)
		}

		if err := w0.Set(id, "label", entity.Str("beta")); err != nil {
			t.Fatal(err)
		}
		st, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := w1.Get(id, "label"); got != entity.Str("beta") {
			t.Fatalf("reconcile=%s: Exact string change did not ship: mirror label = %v", reconcile, got)
		}
		if st.GhostFieldSkips == 0 {
			t.Fatalf("reconcile=%s: Coarse string field evaluated without counting a skip", reconcile)
		}

		// A Coarse string change must not ship (and must not error).
		if err := w0.Set(id, "mood", entity.Str("angry")); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
		if got, _ := w1.Get(id, "mood"); got != entity.Str("calm") {
			t.Fatalf("reconcile=%s: Coarse string field shipped: mirror mood = %v", reconcile, got)
		}
		if rt.GhostFieldSkipTotal.Load() == 0 {
			t.Fatalf("reconcile=%s: GhostFieldSkipTotal stayed zero", reconcile)
		}
	}
}

// TestReconcileRestoreTaintFallback pins the taint escape hatch: a
// snapshot Restore replaces world state wholesale without per-row feed
// marks, so the next barrier's window cannot vouch for unmarked rows.
// The incremental reconcile must detect the tainted window and fall
// back to a full sweep for it — run to the same hash the full scan
// produces across the same perturbation.
func TestReconcileRestoreTaintFallback(t *testing.T) {
	run := func(fullScan bool) uint64 {
		rt, err := New(Config{
			Seed: 7, Shards: 4, World: spatial.NewRect(0, 0, 400, 400),
			TickDT: 0.5, GhostBand: 20, Workers: 2,
			GhostFields: BorderGhostFields(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		rt.fullScan = fullScan
		if err := SeedBorderCrowd(rt, 160, 400, 77, 6); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		// An in-place snapshot round-trip: state is bit-identical but the
		// accumulating feed window is now tainted on every shard.
		for i := 0; i < rt.Shards(); i++ {
			w := rt.ShardWorld(i)
			snap, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Hash()
	}
	inc := run(false)
	full := run(true)
	if inc != full {
		t.Fatalf("post-restore hash diverged: incremental %x vs fullscan %x", inc, full)
	}
}
