package gslplan

import (
	"errors"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/script"
)

// Trigger bodies as content packs ship them: the cascade crowd's
// (internal/shard.CascadePackXML) and the worldsim demo pack's. The
// fuzz corpus is seeded with the same list.
var shippedTriggerBodies = []struct{ entry, body string }{
	{"cond", `amount > 0`},
	{"act", `add(self, "boom", 1); emit("pulse", self, amount - 1);`},
	{"cond", `amount == 0`},
	{"act", `set(self, "flag", get(self, "flag") + 1);`},
	{"act", `set(self, "engaged", get(self, "engaged") + 1);`},
}

// Bodies covering every compilable construct a condition or action can
// use: reads, the three effect kinds, rand draws, branches, for-in over
// a spatial probe, short-circuit logic, early return with a value.
var coverageTriggerBodies = []struct{ entry, body string }{
	{"cond", `amount > 0 && get(self, "on") || rand_float() < 0.5`},
	{"cond", `get(self, "hp") / amount >= 5.0 && !(get(self, "tag") == "x")`},
	{"cond", `len(get(self, "tag")) + amount`}, // non-bool result: the host's problem, not the plan's
	{"cond", `false && 1 / 0 == 1 || dist(self, amount) < 4.0`},
	{"act", `
		let hits = 0;
		for id in nearby(self, 7.0) {
			if get(id, "on") || rand_float() < 0.3 {
				add(id, "boom", amount);
				hits = hits + 1;
			} else {
				set(id, "flag", tick());
			}
		}
		if hits == 0 { return; }
		emit("hit", self, hits);
		set(self, "hp", max(0.0, get(self, "hp") - hits * rand_float()));`},
	{"act", `
		let ns = nearby(self, 20.0);
		if len(ns) > amount && pos_x(self) < pos_y(self) + 100.0 {
			move_toward(self, 0.0, 0.0, 1.5);
			emit("moved", self);
			return len(ns);
		}
		for a in ns { for b in nearby(a, 4.0) { add(b, "boom", 1); } }
		return "done";`},
	// The loop body refills the list the loop ranges over: the loop must
	// keep walking the list it started on.
	{"act", `
		let ns = nearby(self, 20.0);
		for a in ns { ns = nearby(a, 7.0); add(a, "boom", len(ns)); }
		return len(ns);`},
}

// sweepFuel pins one trigger body against the interpreter at every fuel
// cap from 1 (0 means "default cap" to the interpreter) to past
// completion: at every cap the two either both complete — and then as
// the same run — or both stop, the plan with ErrFuel so the host falls
// back and the interpreter reproduces the exact exhaustion.
func sweepFuel(t *testing.T, entry, body string, args []entity.Value) {
	t.Helper()
	prog, plan := mustCompileTrigger(t, entry, body)
	full := interpOutcome(prog, entry, 1<<40, args)
	if full.err != nil {
		t.Fatalf("%s %q: interpreter failed uncapped: %v", entry, body, full.err)
	}
	for cap := int64(1); cap <= full.fuel+2; cap++ {
		i, p := interpOutcome(prog, entry, cap, args), planOutcome(plan, cap, args)
		if (i.err == nil) != (p.err == nil) {
			t.Fatalf("%s %q cap %d: interpreter err=%v, plan err=%v", entry, body, cap, i.err, p.err)
		}
		if p.err != nil {
			if !errors.Is(i.err, script.ErrFuel) || !errors.Is(p.err, ErrFuel) {
				t.Fatalf("%s %q cap %d: want fuel exhaustion on both, got interpreter %v, plan %v",
					entry, body, cap, i.err, p.err)
			}
			continue
		}
		if diff := sameRun(i, p); diff != "" {
			t.Fatalf("%s %q cap %d: %s", entry, body, cap, diff)
		}
	}
}

func TestTriggerFuelSweepParity(t *testing.T) {
	argSets := [][]entity.Value{
		{entity.Int(2), entity.Int(3)},
		{entity.Int(3), entity.Int(0)},
	}
	for _, tb := range append(shippedTriggerBodies, coverageTriggerBodies...) {
		for _, args := range argSets {
			sweepFuel(t, tb.entry, tb.body, args)
		}
	}
}

// TestTriggerRuntimeErrorsFallBack: whenever the interpreter fails for a
// reason other than fuel, the plan must fail too (any error — the host
// rolls back and lets the interpreter report its own).
func TestTriggerRuntimeErrorsFallBack(t *testing.T) {
	for _, tb := range []struct {
		entry, body string
		args        []entity.Value
	}{
		{"cond", `amount > 0`, []entity.Value{entity.Int(2), entity.Null()}},       // emit without a payload
		{"cond", `amount > 0`, []entity.Value{entity.Int(2), entity.Str("three")}}, // host-posted string payload
		{"act", `get(self, "no_such_column");`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `add(77, "boom", 1);`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `set(self, "hp", pos_x(9));`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `emit(self, self);`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `if amount { return; }`, []entity.Value{entity.Int(2), entity.Int(1)}},
	} {
		prog, plan := mustCompileTrigger(t, tb.entry, tb.body)
		i := interpOutcome(prog, tb.entry, 1<<20, tb.args)
		if i.err == nil {
			t.Fatalf("%s %q: expected the interpreter to fail", tb.entry, tb.body)
		}
		if p := planOutcome(plan, 1<<20, tb.args); p.err == nil {
			t.Fatalf("%s %q: interpreter failed (%v) but the plan succeeded", tb.entry, tb.body, i.err)
		}
	}
}

func TestTriggerNotCompilableReasons(t *testing.T) {
	for _, tc := range []struct{ entry, src, want string }{
		{"act", triggerSrc("act", `let i = 0; while i < 3 { i = i + 1; }`), "while"},
		{"act", triggerSrc("act", `spawn("wolf", 1.0, 2.0);`), `builtin "spawn"`},
		{"act", triggerSrc("act", `despawn(self);`), `builtin "despawn"`},
		{"act", triggerSrc("act", `helper(1); } fn helper(x) { return x;`), `user function "helper"`},
		{"cond", triggerSrc("cond", `len(nearby(self, 3.0)) > 0`), "nearby result used as a scalar"},
		{"act", `fn act(self) { }`, "declares 1 parameters, the host passes 2"},
		{"act", `fn cond(self, amount) { return true; }`, `no "act" function`},
	} {
		_, err := Compile("rule", mustParse(t, tc.src), tc.entry, 2)
		var nc *NotCompilable
		if !errors.As(err, &nc) {
			t.Fatalf("%q: want *NotCompilable, got %v", tc.src, err)
		}
		if !strings.Contains(nc.Construct, tc.want) {
			t.Errorf("%q: construct %q does not mention %q", tc.src, nc.Construct, tc.want)
		}
	}
}

func TestTriggerExplainNamesTheEntry(t *testing.T) {
	_, p := mustCompileTrigger(t, "cond", `amount > 0`)
	for _, want := range []string{`rule "rule"`, "cond(self, amount)", "cascade round", "return (amount > 0)"} {
		if !strings.Contains(p.Explain(), want) {
			t.Errorf("explain missing %q:\n%s", want, p.Explain())
		}
	}
}

func TestRunRejectsWrongArgumentCount(t *testing.T) {
	_, p := mustCompileTrigger(t, "cond", `amount > 0`)
	if _, _, err := p.Bind(newFakeHost()).Run(100, entity.Int(1)); err == nil {
		t.Fatal("Run with one of two arguments must fail")
	}
}

// FuzzTriggerCompileParity feeds arbitrary text through the path a
// content pack's <when> / <do> takes — wrap, lex, parse, restricted
// check, Compile — and requires a structured error or a result, never a
// panic. Whenever the body compiles, a clean plan run over the fixed
// fakeHost must be the interpreter's run; a failing plan run is always
// acceptable (the host falls back).
func FuzzTriggerCompileParity(f *testing.F) {
	for _, tb := range append(shippedTriggerBodies, coverageTriggerBodies...) {
		f.Add(tb.body, tb.entry == "cond")
	}
	f.Add(`let i = 0; while i < 9 { i = i + 1; }`, false)
	f.Add(`helper(1); } fn helper(x) { return x;`, false)
	f.Add(`"a" + "b" < "c" || null == amount`, true)
	// Both executors stop within a statement of the cap, which bounds
	// what a hostile body (say, one that doubles a string per statement)
	// can allocate before it is cut off.
	const fuelCap = 64
	args := []entity.Value{entity.Int(2), entity.Int(3)}
	f.Fuzz(func(t *testing.T, body string, isCond bool) {
		if len(body) > 1<<10 {
			t.Skip("parser recursion depth is not what this target bounds")
		}
		entry := "act"
		if isCond {
			entry = "cond"
		}
		prog, err := script.Parse(triggerSrc(entry, body))
		if err != nil {
			return
		}
		script.CheckRestricted(prog)
		plan, err := Compile("rule", prog, entry, len(args))
		if err != nil {
			return
		}
		p := planOutcome(plan, fuelCap, args)
		if p.err != nil {
			return
		}
		if diff := sameRun(interpOutcome(prog, entry, fuelCap, args), p); diff != "" {
			t.Fatalf("%s %q: %s", entry, body, diff)
		}
	})
}
