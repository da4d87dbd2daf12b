package gslplan

import (
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/script"
)

// batchHost is a batch of fake hosts: lane l runs against lanes[l], a
// fresh fakeHost, exactly as its scalar Run runs against a fresh host of
// its own, so a lane's trace is comparable line for line with the scalar
// run's. The embedded host only makes the batch an Env for Bind.
type batchHost struct {
	*fakeHost
	lanes []*fakeHost
}

func newBatchHost(n int) *batchHost {
	h := &batchHost{fakeHost: newFakeHost()}
	for range n {
		h.lanes = append(h.lanes, newFakeHost())
	}
	return h
}

func (h *batchHost) Lane(l int) Env { return h.lanes[l] }

// batchCrowd is the fake crowd a batch runs over: five positioned
// entities, one without a position and one the host does not know.
var batchCrowd = []entity.ID{1, 2, 3, 4, 5, 9, 77}

// checkBatch runs plan over batchCrowd with RunBatch and with one scalar
// Run per subject at the given cap, and reports the first lane where they
// differ. A set-at-a-time program's lane is OK exactly when its scalar
// run succeeds, and then has the scalar run's value, fuel and trace
// (reads, effects, posts, spawns, rand draws, in order); a lane that is
// not OK re-runs on Run, so the batch plus its fallback is the scalar
// run. A per-entity program's lanes are never OK.
func checkBatch(plan *Program, fuelCap int64) string {
	bh := newBatchHost(len(batchCrowd))
	res := plan.Bind(bh).RunBatch(fuelCap, batchCrowd)
	if len(res) != len(batchCrowd) {
		return fmt.Sprintf("%d results for %d subjects", len(res), len(batchCrowd))
	}
	for l, id := range batchCrowd {
		args := []entity.Value{entity.Int(int64(id))}
		scalar := planOutcome(plan, fuelCap, args)
		r := res[l]
		if !plan.SetAtATime() {
			if r.OK {
				return fmt.Sprintf("subject %d: per-entity program (%s) reported an OK lane", id, plan.PerEntity())
			}
			continue
		}
		if r.OK != (scalar.err == nil) {
			return fmt.Sprintf("subject %d: batch OK=%v, scalar outcome %s (%v)", id, r.OK, scalar.class(), scalar.err)
		}
		got := scalar // the fallback: a lane that is not OK is its scalar run
		if r.OK {
			got = outcome{val: script.FromEntity(r.Val), fuel: r.Fuel, trace: strings.Join(bh.lanes[l].trace, "\n")}
		}
		if diff := sameRun(scalar, got); diff != "" {
			return fmt.Sprintf("subject %d: %s", id, diff)
		}
	}
	return ""
}

// sweepBatch checks the batch at every cap from 1 to one past the
// longest scalar run over the crowd, bounded by limit, and at the default
// budget (cap 0) when every run finishes within limit — as sweepCaps
// does, so an input that grows without bound is never run unbounded.
func sweepBatch(t *testing.T, label string, plan *Program, limit int64) {
	t.Helper()
	most, start := int64(0), int64(0)
	for _, id := range batchCrowd {
		o := planOutcome(plan, limit, []entity.Value{entity.Int(int64(id))})
		most = max(most, o.fuel)
		if isFuel(o.err) {
			start = 1
		}
	}
	for cap := start; cap <= min(most, limit)+1; cap++ {
		if diff := checkBatch(plan, cap); diff != "" {
			t.Fatalf("%s cap %d: %s", label, cap, diff)
		}
	}
}

// scenarioBodies are the behaviors internal/shard's crowds ship (mingle,
// claim, raid, mend, pulse) and the world test packs' (chaos's walk and
// drift, the compiled crowd's mingle and chatty — the starved crowd runs
// that pack on a tiny budget).
var scenarioBodies = map[string]string{
	"mingle": `
fn on_tick(self) {
  let ns = nearby(self, 8.0);
  let n = len(ns);
  if n == 0 { return; }
  let cx = 0.0;
  let cy = 0.0;
  for id in ns {
    cx = cx + get(id, "x");
    cy = cy + get(id, "y");
  }
  move_toward(self, cx / n, cy / n, 0.5);
  add(self, "met", n);
}`,
	"pulse": `fn on_tick(self) { emit("pulse", self, 3); }`,
	"claim": `
fn on_tick(self) {
  let ns = nearby(self, 12.0);
  for id in ns {
    if get(id, "kind") == 1 {
      set(id, "claim", self);
      set(id, "heat", get(id, "heat") + 1);
    }
  }
}`,
	"raid": `
fn on_tick(self) {
  let ns = nearby(self, 9.0);
  for id in ns {
    if get(id, "kind") == 2 {
      set(id, "claimed", 1);
      add(id, "kb", 1);
    }
  }
}`,
	"mend": `
fn on_tick(self) {
  let ns = nearby(self, 9.0);
  for id in ns {
    if get(id, "kind") == 1 {
      add(id, "hp", 2);
    }
  }
}`,
	"walk": `
fn on_tick(self) {
  let h = get(self, "hp");
  add(self, "hits", 1);
  if h < 40 {
    set(self, "hp", 60);
    return;
  }
  set(self, "hp", h - 1);
  if h % 13 == 0 {
    let kid = spawn("drone", pos_x(self) + rand_float() * 4.0, pos_y(self) + rand_float() * 4.0);
    set(kid, "vx", rand_float() * 6.0 - 3.0);
    set(kid, "vy", rand_float() * 6.0 - 3.0);
  }
  let ns = nearby(self, 12.0);
  if len(ns) > 0 {
    emit("ping", self, len(ns));
    let first = 0;
    for id in ns { first = id; break; }
    move_toward(self, pos_x(first), pos_y(first), 0.5);
  }
}`,
	"drift": `
fn on_tick(self) {
  let h = get(self, "hp");
  if h < 1 {
    despawn(self);
    return;
  }
  set(self, "hp", h - 1);
}`,
	"jitter": `
fn on_tick(self) {
  set(self, "jit", rand_float());
  let ns = nearby(self, 8.0);
  let n = len(ns);
  if n == 0 { return; }
  let cx = 0.0;
  let cy = 0.0;
  for id in ns {
    cx = cx + get(id, "x");
    cy = cy + get(id, "y");
  }
  move_toward(self, cx / n, cy / n, 0.5);
  add(self, "met", n);
}`,
	"chatty": `
fn bump(n) {
  let k = 0;
  while true {
    k = k + 1;
    if k >= n { break; }
    if k % 2 == 0 { continue; }
  }
  return k;
}
fn on_tick(self) {
  let ns = nearby(self, 3.0);
  add(self, "met", bump(len(ns) + 1));
}`,
}

// TestBatchParityScenarioBodies sweeps every shipped and test-pack
// behavior through the batch oracle at every fuel cap.
func TestBatchParityScenarioBodies(t *testing.T) {
	for name, src := range scenarioBodies {
		plan, err := Compile(name, mustParse(t, src), EntryFn, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sweepBatch(t, name, plan, 1<<20)
	}
}

// TestBatchFallsBackPerLane: one batch holds lanes that complete, lanes
// that error (no position, unknown entity) and lanes a starved budget
// skips; only the completed ones are OK.
func TestBatchFallsBackPerLane(t *testing.T) {
	plan, err := Compile("t", mustParse(t, `
fn on_tick(self) {
  let x = pos_x(self);
  if self == 2 { let i = 0; for a in nearby(self, 50.0) { i = i + a; } }
  set(self, "hp", x);
}`), EntryFn, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := plan.Bind(newBatchHost(len(batchCrowd))).RunBatch(30, batchCrowd)
	var ok []entity.ID
	for l, r := range res {
		if r.OK {
			ok = append(ok, batchCrowd[l])
		}
	}
	if fmt.Sprint(ok) != "[1 3 4 5]" {
		t.Fatalf("OK lanes %v, want [1 3 4 5] (2 starved, 9 and 77 without a position)", ok)
	}
	if diff := checkBatch(plan, 30); diff != "" {
		t.Fatal(diff)
	}
}

// TestPerEntityProgramsNameTheirConstruct: while loops and user calls
// keep a program per entity, its explain says which, and RunBatch hands
// every lane back.
func TestPerEntityProgramsNameTheirConstruct(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`fn on_tick(self) { let i = 0; while i < 2 { i = i + 1; } }`, "while loop (line 1)"},
		{"fn f(x) { return x; }\nfn on_tick(self) {\n  add(self, \"boom\", f(1));\n}", `call to user function "f" (line 3)`},
	} {
		plan, err := Compile("t", mustParse(t, tc.src), EntryFn, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plan.SetAtATime() || plan.PerEntity() != tc.want {
			t.Fatalf("%q: per-entity %q, want %q", tc.src, plan.PerEntity(), tc.want)
		}
		if !strings.Contains(plan.Explain(), "per-entity: "+tc.want) {
			t.Fatalf("%q: explain does not name %q:\n%s", tc.src, tc.want, plan.Explain())
		}
		if diff := checkBatch(plan, 0); diff != "" {
			t.Fatal(diff)
		}
	}
}

// FuzzBatchParity feeds the inputs of FuzzTriggerCompileParity — <do>
// bodies, <when> expressions and whole behavior programs — through
// Compile as behaviors (a body runs inside on_tick(self) with amount
// bound to 3) and holds RunBatch over the fake crowd to one scalar Run
// per subject at every fuel cap up to one past the longest run
// (checkBatch). The corpus adds every scenario and test-pack behavior.
func FuzzBatchParity(f *testing.F) {
	for _, tb := range append(append(shippedTriggerBodies, coverageTriggerBodies...), loopTriggerBodies...) {
		f.Add(tb.body, fuzzKind(tb.entry))
	}
	for _, src := range behaviorPrograms {
		f.Add(src, fuzzBehavior)
	}
	for _, src := range scenarioBodies {
		f.Add(src, fuzzBehavior)
	}
	const fuelLimit = 64
	f.Fuzz(func(t *testing.T, src string, kind uint8) {
		if len(src) > 1<<10 {
			t.Skip("parser recursion depth is not what this target bounds")
		}
		text := src
		switch kind % 3 {
		case fuzzAct:
			text = "fn on_tick(self) { let amount = 3; " + src + " }"
		case fuzzCond:
			text = "fn on_tick(self) { let amount = 3; return " + src + "; }"
		}
		prog, err := script.Parse(text)
		if err != nil {
			return
		}
		script.CheckRestricted(prog)
		plan, err := Compile("fuzz", prog, EntryFn, 1)
		if err != nil {
			return
		}
		sweepBatch(t, fmt.Sprintf("%q", text), plan, fuelLimit)
	})
}
