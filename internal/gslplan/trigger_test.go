package gslplan

import (
	"errors"
	"fmt"
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

// Bodies covering reads, the three effect kinds, rand draws, branches,
// for-in over a spatial probe, short-circuit logic, early return with a
// value.
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

// Bodies over loops and calls: while with break and continue, break and
// continue in a for-in, user functions (declared by closing the
// wrapper's brace, the way a <do> can), spawn and despawn.
var loopTriggerBodies = []struct{ entry, body string }{
	{"act", `
		let i = 0;
		while i < amount + 3 {
			i = i + 1;
			if i % 2 == 0 { continue; }
			if get(self, "boom") + i > 6 { break; }
			add(self, "boom", i);
		}
		return i;`},
	{"act", `
		let kid = spawn("spark", pos_x(self) + rand_float(), pos_y(self));
		set(kid, "hp", 1.5);
		for id in nearby(self, 9.0) {
			if id == amount { despawn(id); continue; }
			if get(id, "on") { break; }
			add(id, "boom", 1);
		}
		despawn(kid);
		return kid;`},
	{"act", `
		return twice(amount) + twice(twice(self));
		} fn twice(x) { let i = 0; let s = 0; while true { s = s + x; i = i + 1; if i == 2 { return s; } }`},
	{"cond", `near(self) > amount } fn near(id) { let n = 0; for o in nearby(id, 8.0) { n = n + 1; } return n`},
}

// TestTriggerFuelSweepParity pins every trigger body against the
// interpreter at every fuel cap from 0 (the default budget) to past
// completion: the same outcome (completed, fuel skip or error, with the
// same text and line), the same fuel — cap+1 for an exhausted run — and
// the same reads, effects and draws.
func TestTriggerFuelSweepParity(t *testing.T) {
	argSets := [][]entity.Value{
		{entity.Int(2), entity.Int(3)},
		{entity.Int(3), entity.Int(0)},
		{entity.Int(1), entity.Int(5)},
	}
	bodies := append(append(shippedTriggerBodies, coverageTriggerBodies...), loopTriggerBodies...)
	for _, tb := range bodies {
		prog, plan := mustCompileTrigger(t, tb.entry, tb.body)
		for _, args := range argSets {
			sweepCaps(t, fmt.Sprintf("%s %q %v", tb.entry, tb.body, args), prog, plan, tb.entry, args, 1<<20)
		}
	}
}

// TestTriggerRuntimeErrorsFallBack: a run that fails for a reason other
// than fuel fails on the plan exactly as on the interpreter — same
// error text (and so the same line for a language error), same fuel at
// the failure, same host interactions before it. There is nothing to
// fall back to: the plan's error is the outcome.
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
		{"act", `despawn(77);`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `spawn("tree", 1.0, amount);`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `let i = 0; while i { i = i + 1; }`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `let s = 0; for n in nearby(self, 9.0) { s = s + n / (n - 3); }`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `add(self, "boom", -"x");`, []entity.Value{entity.Int(2), entity.Int(1)}},
		{"act", `add(self, "boom", min(1, "y"));`, []entity.Value{entity.Int(2), entity.Int(1)}},
	} {
		prog, plan := mustCompileTrigger(t, tb.entry, tb.body)
		i, p := interpOutcome(prog, tb.entry, 1<<20, tb.args), planOutcome(plan, 1<<20, tb.args)
		if i.err == nil || isFuel(i.err) {
			t.Fatalf("%s %q: expected the interpreter to fail, got %v", tb.entry, tb.body, i.err)
		}
		if diff := sameRun(i, p); diff != "" {
			t.Fatalf("%s %q: %s", tb.entry, tb.body, diff)
		}
	}
}

func TestTriggerNotCompilableReasons(t *testing.T) {
	for _, tc := range []struct{ entry, src, want string }{
		{"act", triggerSrc("act", `let l = list(); push(l, self);`), `builtin "list"`},
		{"act", triggerSrc("act", `frob(self);`), `unknown function "frob"`},
		{"act", triggerSrc("act", `helper(1); } fn helper(x) { return helper(x - 1);`), `"helper", which recurses`},
		{"act", triggerSrc("act", `helper(1, 2); } fn helper(x) { return x;`), "helper expects 1 args, got 2"},
		{"act", triggerSrc("act", `break;`), "break outside a loop"},
		{"act", triggerSrc("act", `for id in nearby(self, 3.0) { helper(); } } fn helper() { continue;`), "continue outside a loop"},
		{"act", triggerSrc("act", `let ns = nearby(self, 2.0); ns = 4;`), "reassigned to a non-nearby expression"},
		{"act", triggerSrc("act", `add(self, "boom", later);`), `undefined variable "later"`},
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

// Fuzz input kinds: a <do> body, a <when> expression, or a whole
// program whose on_tick(self) runs as a behavior.
const (
	fuzzAct uint8 = iota
	fuzzCond
	fuzzBehavior
)

// FuzzTriggerCompileParity feeds arbitrary text through the path a
// content pack's <when> / <do> / behavior script takes — wrap, lex,
// parse, restricted check, Compile — and requires a structured error or
// a plan, never a panic. Whenever the text compiles, the plan must be
// the interpreter's run over the fixed fakeHost at every fuel cap from 0
// up to one past the run's fuel (sweepCaps): same outcome class, error
// text and line, fuel, value, trace.
func FuzzTriggerCompileParity(f *testing.F) {
	for _, tb := range append(shippedTriggerBodies, coverageTriggerBodies...) {
		f.Add(tb.body, fuzzKind(tb.entry))
	}
	f.Add(`let i = 0; while i < 9 { i = i + 1; }`, fuzzAct)
	f.Add(`helper(1); } fn helper(x) { return x;`, fuzzAct)
	f.Add(`"a" + "b" < "c" || null == amount`, fuzzCond)
	for _, tb := range loopTriggerBodies {
		f.Add(tb.body, fuzzKind(tb.entry))
	}
	for _, src := range behaviorPrograms {
		f.Add(src, fuzzBehavior)
	}
	// A body that doubles a string every statement is cut off by its
	// budget; a small one bounds what any input can allocate per run.
	const fuelLimit = 64
	f.Fuzz(func(t *testing.T, src string, kind uint8) {
		if len(src) > 1<<10 {
			t.Skip("parser recursion depth is not what this target bounds")
		}
		entry, text, args := "act", triggerSrc("act", src), []entity.Value{entity.Int(2), entity.Int(3)}
		switch kind % 3 {
		case fuzzCond:
			entry, text = "cond", triggerSrc("cond", src)
		case fuzzBehavior:
			entry, text, args = EntryFn, src, []entity.Value{entity.Int(2)}
		}
		prog, err := script.Parse(text)
		if err != nil {
			return
		}
		script.CheckRestricted(prog)
		plan, err := Compile("fuzz", prog, entry, len(args))
		if err != nil {
			if _, construct := Reason(err); construct == "" {
				t.Fatalf("%q: compile error without a construct: %v", src, err)
			}
			return
		}
		sweepCaps(t, fmt.Sprintf("%s %q", entry, src), prog, plan, entry, args, fuelLimit)
	})
}

func fuzzKind(entry string) uint8 {
	if entry == "cond" {
		return fuzzCond
	}
	return fuzzAct
}
