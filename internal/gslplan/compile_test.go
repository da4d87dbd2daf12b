package gslplan

import (
	"errors"
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

// interpFuel runs on_tick(7) on a fresh interpreter with the given
// fuel cap and reports (FuelUsed, err).
func interpFuel(t *testing.T, prog *script.Program, cap int64) (int64, error) {
	t.Helper()
	in := script.NewInterp(prog, script.Options{Fuel: cap})
	_, err := in.Call("on_tick", script.Int(7))
	return in.FuelUsed(), err
}

// checkParity pins the compiled plan against the interpreter for every
// fuel cap from 0 through full-run+2: identical success/failure at
// every budget, identical fuel totals on success.
func checkParity(t *testing.T, src string) {
	t.Helper()
	prog := mustParse(t, src)
	cp, err := Compile("test", prog, EntryFn, 1)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Stdlib-only programs never touch the Env.
	plan := cp.Bind(nil)

	full, ferr := interpFuel(t, prog, 1<<40)
	if ferr != nil {
		// The program errors mid-run; the compiled run must error too
		// (fuel totals are then the interpreter's business on re-run).
		if _, _, cerr := plan.Run(1<<40, entity.Int(7)); cerr == nil {
			t.Fatalf("interp errored (%v) but compiled run succeeded", ferr)
		}
		return
	}
	// Start at 1: Options.Fuel <= 0 means "default cap", not zero.
	for cap := int64(1); cap <= full+2; cap++ {
		iFuel, iErr := interpFuel(t, prog, cap)
		_, cFuel, cErr := plan.Run(cap, entity.Int(7))
		if (iErr == nil) != (cErr == nil) {
			t.Fatalf("cap %d: interp err=%v compiled err=%v", cap, iErr, cErr)
		}
		if iErr == nil && iFuel != cFuel {
			t.Fatalf("cap %d: interp fuel %d != compiled fuel %d", cap, iFuel, cFuel)
		}
		if iErr != nil && !errors.Is(iErr, script.ErrFuel) {
			t.Fatalf("cap %d: unexpected interp error %v", cap, iErr)
		}
		if cErr != nil && !errors.Is(cErr, ErrFuel) {
			t.Fatalf("cap %d: unexpected compiled error %v", cap, cErr)
		}
	}
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
	// An and/or chain nested inside arithmetic goes through the hoist
	// path; fuel must still match.
	checkParity(t, `
fn on_tick(self) {
  let flag = (self > 1 && self < 100) == true;
  if flag { return; }
}`)
}

func TestRuntimeErrorParity(t *testing.T) {
	checkParity(t, `
fn on_tick(self) {
  let x = 1 / 0;
}`)
	checkParity(t, `
fn on_tick(self) {
  let x = 1 % 0;
}`)
	checkParity(t, `
fn on_tick(self) {
  let x = 1 + true;
}`)
	checkParity(t, `
fn on_tick(self) {
  if self { return; }
}`)
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
		{`fn on_tick(self) { while true { } }`, "while"},
		{`fn helper(x) { return x; } fn on_tick(self) { let a = helper(1); }`, `user function "helper"`},
		{`fn on_tick(self) { let l = list(); }`, `builtin "list"`},
		{`fn on_tick(self) { spawn("a", 1.0, 2.0); }`, `builtin "spawn"`},
		{`fn on_tick(self) { let a = missing + 1; }`, `undefined variable "missing"`},
		{`fn on_tick(self) { missing = 1; }`, "undeclared variable"},
		{`fn on_tick(self) { let a = 1; for x in a { } }`, "scalar variable"},
		{`fn on_tick(self) { let ns = nearby(self, 2.0); let a = ns + 1; }`, "used as a scalar"},
		{`fn on_tick(self) { for x in nearby(self, 2.0) { break; } }`, "break"},
		{`fn on_tick(self) { for x in nearby(self, 2.0) { continue; } }`, "continue"},
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

func TestScenarioBodiesCompile(t *testing.T) {
	// The bundled scenario behaviors must stay on the compiled path —
	// CI's E21 coverage gate depends on it.
	bodies := map[string]string{
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
	}
	for name, src := range bodies {
		p, err := Compile(name, mustParse(t, src), EntryFn, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Explain() == "" {
			t.Fatalf("%s: empty explain", name)
		}
		if !strings.Contains(p.Explain(), "set-at-a-time") {
			t.Fatalf("%s: explain missing driver line:\n%s", name, p.Explain())
		}
	}
}

func TestExplainRendersPlanShape(t *testing.T) {
	p, err := Compile("mingle", mustParse(t, `
fn on_tick(self) {
  let ns = nearby(self, 8.0);
  if len(ns) == 0 { return; }
  for id in ns {
    add(self, "met", 1);
  }
}`), EntryFn, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp := p.Explain()
	for _, want := range []string{"spatial-index probe", "for id in ns", "if", "return", "add("} {
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
