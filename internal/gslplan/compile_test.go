package gslplan

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/script"
)

func mustParse(t *testing.T, src string) *script.Program {
	t.Helper()
	prog, err := script.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// checkParity pins a behavior's compiled plan against the interpreter
// for every fuel cap from 0 through one past the full run: on_tick(7)
// over the fake host, the same outcome, error text, fuel and trace at
// every budget.
func checkParity(t *testing.T, src string) {
	t.Helper()
	prog := mustParse(t, src)
	plan, err := Compile("test", prog, EntryFn, 1)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sweepCaps(t, src, prog, plan, EntryFn, []entity.Value{entity.Int(7)}, 1<<20)
}

func TestFuelParityStraightLine(t *testing.T) {
	checkParity(t, `
fn on_tick(self) {
  let a = self * 2 + 1;
  let b = a - 3;
  let c = b / 2.0;
  a = a + 1;
  c = c * -1.5;
  let s = "ab" + "cd";
  let n = len(s);
  let z = abs(0 - a) + min(a, b) + max(1.0, c) + floor(sqrt(16.0));
  z;
}`)
}

func TestFuelParityBranches(t *testing.T) {
	checkParity(t, `
fn on_tick(self) {
  let a = self;
  if a > 3 {
    let b = a * 2;
    if b < 10 { return; }
    a = b;
  } else {
    a = 0;
  }
  a = a + 1;
}`)
}

func TestFuelParityShortCircuit(t *testing.T) {
	// The right side of `||` must stay unevaluated: it would both
	// divide by zero and burn extra fuel.
	checkParity(t, `
fn on_tick(self) {
  let a = true || 1 / 0 == 1;
  let b = false && 1 / 0 == 1;
  if a || b { return; }
  a = false;
}`)
	// Non-short-circuit side: both operands burn.
	checkParity(t, `
fn on_tick(self) {
  let a = false || self > 1;
  let b = true && self > 1;
}`)
}

func TestFuelParityLogicalInArithmetic(t *testing.T) {
	// An and/or chain nested inside arithmetic; fuel must still match.
	checkParity(t, `
fn on_tick(self) {
  let flag = (self > 1 && self < 100) == true;
  if flag { return; }
}`)
}

func TestRuntimeErrorParity(t *testing.T) {
	for _, src := range []string{
		`fn on_tick(self) { let x = 1 / 0; }`,
		`fn on_tick(self) { let x = 1 % 0; }`,
		`fn on_tick(self) { let x = 1 + true; }`,
		`fn on_tick(self) { if self { return; } }`,
		// The error is the first one in the interpreter's evaluation
		// order, with the fuel burned up to it, never a later one.
		`fn on_tick(self) {
  let y = 2;
  let x = (1 / 0) + get(self, "boom") + ("a" < 1);
}`,
		`fn on_tick(self) { let x = -"s"; }`,
		`fn on_tick(self) { let x = !3; }`,
		`fn on_tick(self) { let x = 1 && true; }`,
		`fn on_tick(self) { let x = true && 2; }`,
		// Errors and fuel stops name the failing node's own line.
		"fn on_tick(self) {\n  let x = true &&\n    2;\n}",
		"fn on_tick(self) {\n  if\n    3 { }\n}",
		"fn on_tick(self) {\n  let k = 0;\n  while\n    k {\n  }\n}",
		`fn on_tick(self) { let k = 0; while k < 3 { k = k + 1; if k == 2 { k = k / 0; } } }`,
	} {
		checkParity(t, src)
	}
}

func TestFloatCoercionParity(t *testing.T) {
	checkParity(t, `
fn on_tick(self) {
  let a = 1 / 2;
  let b = 1 / 2.0;
  let c = 1.0 / 0.0;
  let d = 0.0 / 0.0;
  let e = 1 == 1.0;
  let f = d == d;
  let g = min(1, 2.5);
  let h = max(3, 2);
  let i = abs(0 - 7);
  if e || f { a = b; }
}`)
}

// behaviorPrograms are whole on_tick scripts over loops and calls: while
// with break and continue, nested user calls (an argument calling the
// callee itself, a return from inside a loop, a bare return, a function
// falling off its end), spawn and despawn. The fuzz corpus starts from
// them.
var behaviorPrograms = []string{
	`
fn clamp(v, lo, hi) { return max(lo, min(v, hi)); }
fn pair(a, b) { return a * 10 + b; }
fn score(id) {
  let s = 0;
  for n in nearby(id, 6.0) { s = s + clamp(get(n, "boom"), 1, 3); }
  return s;
}
fn on_tick(self) {
  let k = 0;
  while k < 4 {
    k = k + 1;
    if score(k) > 4 { continue; }
    set(self, "flag", clamp(k, 0, 2));
  }
  if k == 4 { return score(self) + clamp(score(1), 0, 9) + pair(1, pair(2, 3)); }
}`,
	`
fn walk(n) {
  let i = 0;
  while true {
    i = i + 1;
    if i > n { return i; }
    if i % 3 == 0 { continue; }
    emit("step", i, n);
  }
}
fn noop(x) { let y = x; }
fn gate(x) {
  if x > 2 { return; }
  return x;
}
fn on_tick(self) {
  let total = walk(walk(1) + 1);
  noop(total);
  emit("gate", self, gate(total));
  for id in nearby(self, 12.0) {
    if id == 4 { break; }
    add(id, "boom", walk(id));
  }
  return total;
}`,
	`
fn on_tick(self) {
  let h = get(self, "boom");
  if h % 2 == 0 {
    let kid = spawn("drone", pos_x(self) + rand_float() * 4.0, pos_y(self));
    set(kid, "hp", rand_float() * 6.0 - 3.0);
    despawn(kid);
  }
  for id in nearby(self, 20.0) {
    if get(id, "on") { despawn(id); continue; }
    if id > 4 { break; }
  }
  despawn(self);
}`,
}

func TestBehaviorFuelSweepParity(t *testing.T) {
	for _, src := range behaviorPrograms {
		prog := mustParse(t, src)
		plan, err := Compile("test", prog, EntryFn, 1)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		for self := int64(1); self <= 3; self++ {
			sweepCaps(t, src, prog, plan, EntryFn, []entity.Value{entity.Int(self)}, 1<<20)
		}
	}
}

func notCompilableReason(t *testing.T, src string) string {
	t.Helper()
	prog := mustParse(t, src)
	_, err := Compile("test", prog, EntryFn, 1)
	if err == nil {
		t.Fatalf("expected NotCompilable, got nil")
	}
	var nc *NotCompilable
	if !errors.As(err, &nc) {
		t.Fatalf("expected *NotCompilable, got %T: %v", err, err)
	}
	return nc.Construct
}

func TestNotCompilableReasons(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`fn helper(x) { return helper(x); } fn on_tick(self) { let a = helper(1); }`, `"helper", which recurses`},
		{`fn a(x) { return b(x); } fn b(x) { return a(x); } fn on_tick(self) { b(self); }`, `"b", which recurses`},
		{`fn on_tick(self) { on_tick(self); }`, `"on_tick", which recurses`},
		{`fn on_tick(self) { let l = list(); }`, `builtin "list"`},
		{`fn on_tick(self) { let l = nearby(self, 1.0); push(l, 1); }`, `builtin "push"`},
		{`fn on_tick(self) { explode(self); }`, `unknown function "explode"`},
		{`fn on_tick(self) { let a = missing + 1; }`, `undefined variable "missing"`},
		{`fn on_tick(self) { missing = 1; }`, "undeclared variable"},
		{`fn on_tick(self) { let a = 1; for x in a { } }`, "scalar variable"},
		{`fn on_tick(self) { let ns = nearby(self, 2.0); let a = ns + 1; }`, "used as a scalar"},
		{`fn on_tick(self) { if self > 0 { break; } }`, "break outside a loop"},
		{`fn on_tick(self) { continue; }`, "continue outside a loop"},
		{`fn on_tick(self) { let a = get(self); }`, "argument count"},
		{`fn on_tick(self, other) { }`, "declares 2 parameters, the host passes 1"},
	}
	for _, tc := range cases {
		got := notCompilableReason(t, tc.src)
		if !strings.Contains(got, tc.want) {
			t.Errorf("src %q: construct %q does not mention %q", tc.src, got, tc.want)
		}
	}
}

// TestCallDepthBeyondTheInterpretersIsRejected: a chain of 65 nested
// calls is one the interpreter would abort with ErrDepth when it ran it;
// the compiler refuses it up front, and accepts 64.
func TestCallDepthBeyondTheInterpretersIsRejected(t *testing.T) {
	chain := func(n int) string {
		var sb strings.Builder
		for i := 1; i < n; i++ {
			sb.WriteString("fn f" + strconv.Itoa(i) + "() { return f" + strconv.Itoa(i+1) + "(); }\n")
		}
		sb.WriteString("fn f" + strconv.Itoa(n) + "() { return 1; }\nfn on_tick(self) { return f1(); }")
		return sb.String()
	}
	if _, err := Compile("deep", mustParse(t, chain(script.DefaultMaxDepth-1)), EntryFn, 1); err != nil {
		t.Fatalf("a %d-deep chain must compile: %v", script.DefaultMaxDepth, err)
	}
	if got := notCompilableReason(t, chain(script.DefaultMaxDepth)); !strings.Contains(got, "call depth") {
		t.Fatalf("construct %q does not name the call depth", got)
	}
}

// TestScenarioBodiesCompile: the crowds' behaviors compile, run
// set-at-a-time, and say so in their explain's driver line.
func TestScenarioBodiesCompile(t *testing.T) {
	for _, name := range []string{"mingle", "raid", "mend", "pulse", "claim"} {
		p, err := Compile(name, mustParse(t, scenarioBodies[name]), EntryFn, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !p.SetAtATime() {
			t.Fatalf("%s: runs per entity (%s)", name, p.PerEntity())
		}
		if !strings.Contains(p.Explain(), "driver: set-at-a-time") {
			t.Fatalf("%s: explain missing the set-at-a-time driver line:\n%s", name, p.Explain())
		}
	}
}

func TestExplainRendersPlanShape(t *testing.T) {
	p, err := Compile("mingle", mustParse(t, `
fn count(ns) { return ns; }
fn on_tick(self) {
  let ns = nearby(self, 8.0);
  if len(ns) == 0 { return; }
  for id in ns {
    add(self, "met", count(1));
  }
  while false { break; }
}`), EntryFn, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp := p.Explain()
	for _, want := range []string{"spatial-index probe", "for id in ns", "if", "return", "add(", "while false", "break", "fn count(ns)", "count(1)"} {
		if !strings.Contains(exp, want) {
			t.Errorf("explain missing %q:\n%s", want, exp)
		}
	}
}

func TestShadowingUsesDistinctSlots(t *testing.T) {
	checkParity(t, `
fn on_tick(self) {
  let a = 1;
  if self > 0 {
    let a = 100;
    a = a + 1;
  }
  a = a + 1;
  if a != 2 { let x = 1 / 0; }
}`)
}
