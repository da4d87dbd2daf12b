package world

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// runChaosApply drives the chaos pack (every effect kind: sets, adds,
// spawns, despawns, posts, trigger writes, and velocity physics) for 30 ticks
// and returns the world with each tick rendered as tickLine.
func runChaosApply(t *testing.T, workers int) (*World, []string) {
	t.Helper()
	w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: workers}, chaosPack)
	lines := runTicks(t, w, 30, true)
	for _, l := range lines {
		if !strings.Contains(l, " errs=0 ") {
			t.Fatalf("workers=%d: script error: %s", workers, l)
		}
	}
	return w, lines
}

// TestBatchedApplyMatchesRowApply pins the columnar apply to the lines
// the row-at-a-time reference apply recorded on the chaos workload (run
// "rowapply" in testdata/interpreter_goldens.txt): the same snapshot
// hash and the same counters — effects and conflicts, behavior and
// trigger alike — every tick, for every worker count. Grouping effects
// by (table, column), integrating physics as a column run and flushing
// the spatial index in one MoveSlots is invisible in state; the effect
// counts differ from the reference only by the physics records it
// counted (see the goldens' header).
func TestBatchedApplyMatchesRowApply(t *testing.T) {
	want := goldenLines(t, "rowapply")
	for _, workers := range []int{1, 2, 4, 8} {
		_, got := runChaosApply(t, workers)
		requireGolden(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestSpatialIndexConsistencyAfterBatchedMoves checks the MoveSlots
// flush leaves the index exactly mirroring the tables: every live
// spatial row is queryable at its current (x, y), the indexed position
// matches the stored columns bit-for-bit, and no despawned entity
// lingers in the grid.
func TestSpatialIndexConsistencyAfterBatchedMoves(t *testing.T) {
	w, _ := runChaosApply(t, 4)
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

// TestApplyStatsMatchAcrossModes checks the apply accounting alone:
// behavior and trigger effects and conflicts, tick by tick, agree
// between a serial (Workers 1) and a parallel (Workers 2) run of the
// chaos workload, and both agree with the counters the row-at-a-time
// reference apply recorded (run "rowapply").
func TestApplyStatsMatchAcrossModes(t *testing.T) {
	run := func(workers int) []TickStats {
		w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: workers}, chaosPack)
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
	counters := func(st TickStats) string {
		return fmt.Sprintf("teff=%d tconf=%d eff=%d conf=%d",
			st.TriggerEffects, st.TriggerConflicts, st.Effects, st.EffectConflicts)
	}
	// goldenCounters extracts the same four fields from a recorded line.
	goldenCounters := func(line string) string {
		field := func(key string) string {
			for _, f := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(f, key+"="); ok {
					return v
				}
			}
			t.Fatalf("golden line has no %s: %s", key, line)
			return ""
		}
		return fmt.Sprintf("teff=%s tconf=%s eff=%s conf=%s",
			field("teff"), field("tconf"), field("eff"), field("conf"))
	}
	row := goldenLines(t, "rowapply")
	serial := run(1)
	parallel := run(2)
	if len(row) < len(serial) {
		t.Fatalf("rowapply golden has %d ticks, need %d", len(row), len(serial))
	}
	for i := range serial {
		want := goldenCounters(row[i])
		if got := counters(serial[i]); got != want {
			t.Fatalf("tick %d: row apply recorded %s, serial batched apply %s", i+1, want, got)
		}
		if got := counters(parallel[i]); got != want {
			t.Fatalf("tick %d: row apply recorded %s, parallel batched apply %s", i+1, want, got)
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
