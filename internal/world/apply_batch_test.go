package world

import (
	"bytes"
	"fmt"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// runChaosApply drives the chaos pack (every effect kind: sets, adds,
// spawns, despawns, posts, trigger writes, physics deltas) under the
// given apply mode and returns the final snapshot.
func runChaosApply(t *testing.T, workers int, rowApply bool) (*World, []byte) {
	t.Helper()
	w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: workers}, chaosPack)
	if rowApply {
		w.UseRowApply()
	}
	for i := 0; i < 30; i++ {
		st, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ScriptErrors > 0 {
			t.Fatalf("workers=%d tick %d: script error %v", workers, st.Tick, w.LastScriptError)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return w, snap
}

// TestBatchedApplyMatchesRowApply pins the columnar apply to the
// row-at-a-time reference on the chaos workload: same snapshot bytes for
// every worker count, so grouping effects by (table, column) and
// flushing the spatial index in one MoveBatch is invisible in state.
func TestBatchedApplyMatchesRowApply(t *testing.T) {
	_, base := runChaosApply(t, 1, true)
	for _, workers := range []int{1, 2, 4, 8} {
		_, got := runChaosApply(t, workers, false)
		if !bytes.Equal(base, got) {
			t.Fatalf("batched apply (workers=%d) diverged from row apply", workers)
		}
	}
}

// TestSpatialIndexConsistencyAfterBatchedMoves checks the MoveBatch
// flush leaves the index exactly mirroring the tables: every live
// spatial row is queryable at its current (x, y), the indexed position
// matches the stored columns bit-for-bit, and no despawned entity
// lingers in the grid.
func TestSpatialIndexConsistencyAfterBatchedMoves(t *testing.T) {
	w, _ := runChaosApply(t, 4, false)
	live := 0
	for _, name := range w.TableNames() {
		tab, _ := w.Table(name)
		s := tab.Schema()
		if !isSpatial(s) {
			continue
		}
		xci, _ := s.Col("x")
		yci, _ := s.Col("y")
		tab.Scan(func(id entity.ID, row []entity.Value) bool {
			live++
			want := spatial.Vec2{X: row[xci].Float(), Y: row[yci].Float()}
			got, ok := w.Pos(id)
			if !ok {
				t.Fatalf("entity %d has a row but no indexed position", id)
			}
			if got != want {
				t.Fatalf("entity %d indexed at %v, table says %v", id, got, want)
			}
			found := false
			w.Index().QueryCircle(want, 0.001, func(qid spatial.ID, _ spatial.Vec2) bool {
				if entity.ID(qid) == id {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("entity %d not queryable at its position %v", id, want)
			}
			return true
		})
	}
	if live == 0 {
		t.Fatal("chaos scenario left no spatial rows to check")
	}
	if w.Index().Len() != live {
		t.Fatalf("index holds %d positions, tables hold %d spatial rows (stale entries?)",
			w.Index().Len(), live)
	}
}

// TestApplyStatsMatchAcrossModes asserts the two apply paths agree not
// just on state but on accounting: effects and conflicts per tick.
func TestApplyStatsMatchAcrossModes(t *testing.T) {
	run := func(rowApply bool) []TickStats {
		w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: 2}, chaosPack)
		if rowApply {
			w.UseRowApply()
		}
		var out []TickStats
		for i := 0; i < 20; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}
	row := run(true)
	batch := run(false)
	for i := range row {
		if row[i].Effects != batch[i].Effects || row[i].EffectConflicts != batch[i].EffectConflicts {
			t.Fatalf("tick %d: row apply %d effects/%d conflicts, batched %d/%d",
				i+1, row[i].Effects, row[i].EffectConflicts, batch[i].Effects, batch[i].EffectConflicts)
		}
		if row[i].TriggerEffects != batch[i].TriggerEffects || row[i].TriggerConflicts != batch[i].TriggerConflicts {
			t.Fatalf("tick %d: trigger accounting diverged between apply modes", i+1)
		}
	}
}

// TestEffectBufferResolutionCacheInvalidates pins the EffectBuffer's
// (table, schema, column) cache against schema migration: adding a
// column mid-run rebuilds the cached entry instead of writing through a
// stale column index.
func TestEffectBufferResolutionCacheInvalidates(t *testing.T) {
	const pack = `
<contentpack name="migr">
  <schema table="units">
    <column name="hp" kind="int" default="5"/>
  </schema>
  <archetype name="u" table="units" script="tickup"/>
  <script name="tickup">
fn on_tick(self) { add(self, "hp", 1); }
  </script>
  <spawn archetype="u" count="3" x="0" y="0"/>
</contentpack>`
	w := loadPack(t, Config{Seed: 1}, pack)
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	tab, _ := w.Table("units")
	// Migrate: prepend nothing but append a column, then drop hp, so
	// the old cached hp index would now be out of range or wrong.
	if err := tab.AddColumn(entity.Column{Name: "mana", Kind: entity.KindInt, Default: entity.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(); err != nil {
		t.Fatal(err)
	}
	var id entity.ID
	tab.Scan(func(i entity.ID, _ []entity.Value) bool { id = i; return false })
	hp, err := w.Get(id, "hp")
	if err != nil {
		t.Fatal(err)
	}
	if hp.Int() != 7 {
		t.Fatalf("hp = %d after two ticks, want 7 (stale column cache?)", hp.Int())
	}
	mana, err := w.Get(id, "mana")
	if err != nil {
		t.Fatal(err)
	}
	if mana.Int() != 2 {
		t.Fatalf("mana = %d, want default 2", mana.Int())
	}
}

// TestWorldsSharePoolDeterministically runs two worlds concurrently on
// the shared pool and checks both still produce the single-world
// result — pool scheduling must never leak into world state.
func TestWorldsSharePoolDeterministically(t *testing.T) {
	base, _ := runChaos(t, 4, 25)
	done := make(chan []byte, 2)
	for i := 0; i < 2; i++ {
		go func() {
			w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: 4}, chaosPack)
			for i := 0; i < 25; i++ {
				if _, err := w.Step(); err != nil {
					panic(fmt.Sprintf("step: %v", err))
				}
			}
			snap, err := w.Snapshot()
			if err != nil {
				panic(err)
			}
			done <- snap
		}()
	}
	for i := 0; i < 2; i++ {
		if got := <-done; !bytes.Equal(base, got) {
			t.Fatal("concurrent world on shared pool diverged from solo run")
		}
	}
}
