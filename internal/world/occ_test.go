package world

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// twoWritersOneReaderPack is the crafted conflict scenario from the
// issue: entity 1 is a passive store cell, entities 2 and 3 both
// read-modify-write its "v" column, and entity 4 reads "v" into its own
// "out" column. Last-write-wins loses writer 2's update (a lost
// update, matching NO serial order); OCC re-runs writer 2 against the
// post-apply state, which is exactly the serial order R, B, A.
const twoWritersOneReaderPack = `
<contentpack name="two-writers-one-reader">
  <schema table="cells">
    <column name="v" kind="int"/>
    <column name="out" kind="int"/>
  </schema>
  <archetype name="store" table="cells"/>
  <archetype name="wa" table="cells" script="wa"/>
  <archetype name="wb" table="cells" script="wb"/>
  <archetype name="rd" table="cells" script="rd"/>
  <script name="wa">
fn on_tick(self) { set(1, "v", get(1, "v") + 10); }
  </script>
  <script name="wb">
fn on_tick(self) { set(1, "v", get(1, "v") + 100); }
  </script>
  <script name="rd">
fn on_tick(self) { set(self, "out", get(1, "v")); }
  </script>
</contentpack>`

// spawnConflictQuartet loads the crafted pack and spawns store (id 1),
// writer A (2), writer B (3) and reader R (4), with v seeded to v0.
func spawnConflictQuartet(t *testing.T, cfg Config, v0 int64) *World {
	t.Helper()
	w := loadPack(t, cfg, twoWritersOneReaderPack)
	for _, arch := range []string{"store", "wa", "wb", "rd"} {
		if _, err := w.Spawn(arch, spatial.Vec2{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Set(1, "v", entity.Int(v0)); err != nil {
		t.Fatal(err)
	}
	return w
}

// serialQuartet executes the three behaviors serially (direct
// semantics) in the given order over plain ints and returns (v, out).
func serialQuartet(order [3]rune, v0 int64) (int64, int64) {
	v, out := v0, int64(0)
	for _, who := range order {
		switch who {
		case 'A':
			v += 10
		case 'B':
			v += 100
		case 'R':
			out = v
		}
	}
	return v, out
}

func TestOCCTwoWritersOneReaderSerializable(t *testing.T) {
	const v0 = 7
	read := func(w *World, id entity.ID, col string) int64 {
		t.Helper()
		v, err := w.Get(id, col)
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}

	// Last-write-wins: writer B (higher source id) wins, writer A's
	// increment is lost — the final state matches NO serial execution.
	lw := spawnConflictQuartet(t, Config{Seed: 1}, v0)
	st, err := lw.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.EffectRetries != 0 || st.EffectAborts != 0 {
		t.Fatalf("lastwrite counted retries=%d aborts=%d, want 0/0", st.EffectRetries, st.EffectAborts)
	}
	lwV, lwOut := read(lw, 1, "v"), read(lw, 4, "out")
	if lwV != v0+100 || lwOut != v0 {
		t.Fatalf("lastwrite (v, out) = (%d, %d), want (%d, %d)", lwV, lwOut, v0+100, v0)
	}

	// OCC: writer A is a loser that read the cell B's winning write
	// owns, so it re-runs against the post-apply state.
	occ := spawnConflictQuartet(t, Config{Seed: 1, ConflictPolicy: ConflictOCC}, v0)
	st, err = occ.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.EffectRetries != 1 || st.EffectAborts != 0 {
		t.Fatalf("occ counted retries=%d aborts=%d, want 1/0", st.EffectRetries, st.EffectAborts)
	}
	occV, occOut := read(occ, 1, "v"), read(occ, 4, "out")
	if occV != v0+110 || occOut != v0 {
		t.Fatalf("occ (v, out) = (%d, %d), want (%d, %d)", occV, occOut, v0+110, v0)
	}
	if occV == lwV {
		t.Fatal("occ did not diverge from lastwrite on a genuine lost update")
	}

	// Serializability: the OCC result must equal SOME serial execution
	// of the three behaviors; the lastwrite result must equal none.
	orders := [][3]rune{
		{'A', 'B', 'R'}, {'A', 'R', 'B'}, {'B', 'A', 'R'},
		{'B', 'R', 'A'}, {'R', 'A', 'B'}, {'R', 'B', 'A'},
	}
	occSerial, lwSerial := false, false
	for _, ord := range orders {
		v, out := serialQuartet(ord, v0)
		if v == occV && out == occOut {
			occSerial = true
		}
		if v == lwV && out == lwOut {
			lwSerial = true
		}
	}
	if !occSerial {
		t.Fatalf("occ result (v=%d, out=%d) matches no serial order", occV, occOut)
	}
	if lwSerial {
		t.Fatal("lastwrite unexpectedly serializable here — scenario no longer crafts a lost update")
	}
}

// TestOCCHashInvariantAcrossWorkers pins the crafted conflict scenario
// to identical snapshots (and identical retry accounting) for every
// worker count: invalidation and re-runs are functions of the
// deterministic merge, never of the partitioning.
func TestOCCHashInvariantAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]byte, int, int) {
		w := spawnConflictQuartet(t, Config{Seed: 1, Workers: workers, ConflictPolicy: ConflictOCC}, 7)
		retries, aborts := 0, 0
		for i := 0; i < 5; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.ScriptErrors > 0 {
				t.Fatalf("workers=%d: %v", workers, w.LastScriptError)
			}
			retries += st.EffectRetries
			aborts += st.EffectAborts
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap, retries, aborts
	}
	base, baseRetries, baseAborts := run(1)
	if baseRetries == 0 {
		t.Fatal("scenario produced no retries — conflict machinery not exercised")
	}
	for _, workers := range []int{2, 4, 8} {
		snap, retries, aborts := run(workers)
		if !bytes.Equal(base, snap) {
			t.Fatalf("occ snapshot diverged at workers=%d", workers)
		}
		if retries != baseRetries || aborts != baseAborts {
			t.Fatalf("occ accounting diverged at workers=%d: retries %d vs %d, aborts %d vs %d",
				workers, retries, baseRetries, aborts, baseAborts)
		}
	}
}

// TestOCCMatchesLastwriteWithoutConflicts: on a workload with no
// conflicting assignments (the chaos pack writes only self and own
// spawns), the OCC policy must be byte-identical to lastwrite with zero
// retries — the validate pass is pure observation.
func TestOCCMatchesLastwriteWithoutConflicts(t *testing.T) {
	run := func(policy string) []byte {
		w := loadPack(t, Config{Seed: 9, CellSize: 8, Workers: 4, ConflictPolicy: policy}, chaosPack)
		for i := 0; i < 25; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.EffectRetries != 0 || st.EffectAborts != 0 {
				t.Fatalf("%s policy: tick %d counted retries=%d aborts=%d on a conflict-free load",
					policy, st.Tick, st.EffectRetries, st.EffectAborts)
			}
			if st.ScriptErrors > 0 {
				t.Fatal(w.LastScriptError)
			}
		}
		snap, err := w.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if !bytes.Equal(run(ConflictLastWrite), run(ConflictOCC)) {
		t.Fatal("occ diverged from lastwrite on a workload with no conflicting assignments")
	}
}

// multiWriterPack: K=4 writers all read-modify-write store cell 1.
// Each OCC round commits exactly one writer (the round's last in
// source order) and invalidates the rest, so K writers need K-1
// re-run rounds to serialize fully.
const multiWriterPack = `
<contentpack name="multi-writer">
  <schema table="cells">
    <column name="v" kind="int"/>
  </schema>
  <archetype name="store" table="cells"/>
  <archetype name="inc" table="cells" script="inc"/>
  <script name="inc">
fn on_tick(self) { set(1, "v", get(1, "v") + 1); }
  </script>
</contentpack>`

func spawnMultiWriter(t *testing.T, cfg Config, writers int) *World {
	t.Helper()
	w := loadPack(t, cfg, multiWriterPack)
	if _, err := w.Spawn("store", spatial.Vec2{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		if _, err := w.Spawn("inc", spatial.Vec2{}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestOCCConvergesToSerialWithinCap(t *testing.T) {
	// Default cap (8) comfortably covers 4 racing writers: the result is
	// the serial one (+4), with 3+2+1 re-runs and no aborts.
	w := spawnMultiWriter(t, Config{Seed: 3, ConflictPolicy: ConflictOCC}, 4)
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Get(1, "v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 4 {
		t.Fatalf("v = %d after 4 racing increments under occ, want 4 (serial)", v.Int())
	}
	if st.EffectRetries != 6 || st.EffectAborts != 0 {
		t.Fatalf("retries=%d aborts=%d, want 6/0", st.EffectRetries, st.EffectAborts)
	}
}

func TestOCCRetryCapAborts(t *testing.T) {
	// Cap of 2 rounds on 4 racing writers: rounds commit writers 5, 4, 3
	// (one per round including round 0), then the cap trips and writer
	// 2's final attempt aborts — v gains 3, not the serial 4.
	w := spawnMultiWriter(t, Config{Seed: 3, ConflictPolicy: ConflictOCC, EffectRetryCap: 2}, 4)
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	v, err := w.Get(1, "v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 3 {
		t.Fatalf("v = %d with retry cap 2, want 3", v.Int())
	}
	if st.EffectRetries != 5 || st.EffectAborts != 1 {
		t.Fatalf("retries=%d aborts=%d, want 5/1", st.EffectRetries, st.EffectAborts)
	}
	// The cap only bounds work; determinism holds either way.
	w2 := spawnMultiWriter(t, Config{Seed: 3, ConflictPolicy: ConflictOCC, EffectRetryCap: 2}, 4)
	st2, err := w2.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st2.EffectRetries != st.EffectRetries || st2.EffectAborts != st.EffectAborts {
		t.Fatal("capped occ run not reproducible")
	}
}

// conflictTriggerPack: every tick the entity posts one "hit" event;
// two rules both read-modify-write its score. The trigger-round apply
// rides the same conflict machinery as the behavior phase.
const conflictTriggerPack = `
<contentpack name="trigger-conflict">
  <schema table="units">
    <column name="score" kind="int"/>
  </schema>
  <archetype name="u" table="units" script="fire"/>
  <script name="fire">
fn on_tick(self) { emit("hit", self); }
  </script>
  <trigger name="r1" event="hit" priority="5">
    <do>set(self, "score", get(self, "score") + 5);</do>
  </trigger>
  <trigger name="r2" event="hit">
    <do>set(self, "score", get(self, "score") + 7);</do>
  </trigger>
</contentpack>`

func TestOCCResolvesTriggerActionConflicts(t *testing.T) {
	run := func(policy string, ticks int) (int64, int, int, []string) {
		w := loadPack(t, Config{Seed: 2, ConflictPolicy: policy}, conflictTriggerPack)
		if _, err := w.Spawn("u", spatial.Vec2{}); err != nil {
			t.Fatal(err)
		}
		retries, aborts := 0, 0
		var snaps []string
		for i := 0; i < ticks; i++ {
			st, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.TriggerErrors > 0 || st.ScriptErrors > 0 {
				t.Fatalf("errors during run: %v", w.LastScriptError)
			}
			retries += st.EffectRetries
			aborts += st.EffectAborts
			snap, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, fmt.Sprintf("tick=%d snap=%016x ", st.Tick, snapHash(snap)))
		}
		v, err := w.Get(1, "score")
		if err != nil {
			t.Fatal(err)
		}
		return v.Int(), retries, aborts, snaps
	}
	// Last-write-wins keeps only the later rule's increment per round.
	if score, _, _, _ := run(ConflictLastWrite, 3); score != 3*7 {
		t.Fatalf("lastwrite score = %d, want %d", score, 3*7)
	}
	// OCC re-runs the losing action: both increments land, like the
	// serial direct-execution drain would produce.
	score, retries, aborts, snaps := run(ConflictOCC, 3)
	if score != 3*(5+7) {
		t.Fatalf("occ score = %d, want %d", score, 3*(5+7))
	}
	if retries != 3 || aborts != 0 {
		t.Fatalf("occ trigger retries=%d aborts=%d, want 3/0", retries, aborts)
	}
	// And it is the trigger engine's serial direct-write drain, tick by
	// tick, as recorded when the world could still run that drain.
	direct := goldenLines(t, "direct")
	for i, snap := range snaps {
		if !strings.HasPrefix(direct[i], snap) {
			t.Fatalf("occ %s, the serial direct drain recorded %s", snap, direct[i])
		}
	}
	if want := fmt.Sprintf("score=%d", score); direct[len(snaps)] != want {
		t.Fatalf("occ %s, the serial direct drain recorded %s", want, direct[len(snaps)])
	}
}

// movingWritersPack: two drifting entities (velocity physics) whose
// behaviors read-modify-write store cell 1's "v". The losing writer is
// invalidated and re-runs — but velocity integration is not part of
// its invocation: the withhold covers the behavior's records only, and
// the entity still moves in the first apply.
const movingWritersPack = `
<contentpack name="moving-writers">
  <schema table="cells">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
    <column name="vx" kind="float"/>
    <column name="vy" kind="float"/>
    <column name="v" kind="int"/>
  </schema>
  <archetype name="store" table="cells"/>
  <archetype name="mover" table="cells" script="inc"/>
  <script name="inc">
fn on_tick(self) { set(1, "v", get(1, "v") + 1); }
  </script>
</contentpack>`

func TestOCCKeepsInvalidatedEntitiesPhysics(t *testing.T) {
	w := loadPack(t, Config{Seed: 4, TickDT: 0.5, ConflictPolicy: ConflictOCC}, movingWritersPack)
	if _, err := w.Spawn("store", spatial.Vec2{}); err != nil {
		t.Fatal(err)
	}
	ids := make([]entity.ID, 2)
	for i := range ids {
		id, err := w.Spawn("mover", spatial.Vec2{X: float64(10 * (i + 1)), Y: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Set(id, "vx", entity.Float(4)); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	st, err := w.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.EffectRetries != 1 {
		t.Fatalf("retries = %d, want 1 (one loser re-run)", st.EffectRetries)
	}
	v, err := w.Get(1, "v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 2 {
		t.Fatalf("v = %d, want 2 (serial)", v.Int())
	}
	// BOTH movers advanced by vx*dt — the invalidated loser's step must
	// not be withheld with its behavior invocation.
	for i, id := range ids {
		p, ok := w.Pos(id)
		if !ok {
			t.Fatalf("mover %d lost its position", id)
		}
		want := float64(10*(i+1)) + 4*0.5
		if p.X != want {
			t.Fatalf("mover %d x = %v, want %v (physics withheld with the invocation?)", id, p.X, want)
		}
	}
}
