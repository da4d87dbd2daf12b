package script

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gamedb/internal/entity"
)

// run parses src and executes fn main() (or top-level statements when no
// main exists), returning main's value.
func run(t *testing.T, src string, opts Options) (Value, error) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := NewInterp(prog, opts)
	if _, ok := prog.Fns["main"]; ok {
		return in.Call("main")
	}
	return Null(), in.Run()
}

func mustEval(t *testing.T, src string) Value {
	t.Helper()
	v, err := run(t, src, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestArithmeticAndPrecedence(t *testing.T) {
	cases := map[string]Value{
		`fn main() { return 1 + 2 * 3; }`:        Int(7),
		`fn main() { return (1 + 2) * 3; }`:      Int(9),
		`fn main() { return 10 / 3; }`:           Int(3),
		`fn main() { return 10.0 / 4; }`:         Float(2.5),
		`fn main() { return 10 % 3; }`:           Int(1),
		`fn main() { return -3 + 1; }`:           Int(-2),
		`fn main() { return 2 < 3 && 3 < 2; }`:   Bool(false),
		`fn main() { return 2 < 3 || 3 < 2; }`:   Bool(true),
		`fn main() { return !(2 < 3); }`:         Bool(false),
		`fn main() { return "a" + "b"; }`:        Str("ab"),
		`fn main() { return "a" < "b"; }`:        Bool(true),
		`fn main() { return 1 == 1.0; }`:         Bool(true),
		`fn main() { return null == null; }`:     Bool(true),
		`fn main() { return 1 != 2; }`:           Bool(true),
		`fn main() { return 2.5 * 2; }`:          Float(5),
		`fn main() { return abs(-4); }`:          Int(4),
		`fn main() { return abs(-4.5); }`:        Float(4.5),
		`fn main() { return sqrt(16.0); }`:       Float(4),
		`fn main() { return floor(2.9); }`:       Float(2),
		`fn main() { return min(3, 7); }`:        Int(3),
		`fn main() { return max(3, 7.5); }`:      Float(7.5),
		`fn main() { return len("abc"); }`:       Int(3),
		`fn main() { return len(list(1,2,3)); }`: Int(3),
	}
	for src, want := range cases {
		if got := mustEval(t, src); !Equal(got, want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestVariablesAndScoping(t *testing.T) {
	v := mustEval(t, `
fn main() {
	let x = 1;
	let y = 2;
	{
		let x = 10;   // shadows
		y = x + y;    // assigns outer y
	}
	return x + y;     // 1 + 12
}`)
	if !Equal(v, Int(13)) {
		t.Fatalf("got %v, want 13", v)
	}
	if _, err := run(t, `fn main() { z = 1; }`, Options{}); err == nil {
		t.Fatal("assignment to undeclared variable should fail")
	}
	if _, err := run(t, `fn main() { return q; }`, Options{}); err == nil {
		t.Fatal("undefined variable should fail")
	}
}

func TestControlFlow(t *testing.T) {
	v := mustEval(t, `
fn main() {
	let total = 0;
	let i = 0;
	while i < 10 {
		i = i + 1;
		if i % 2 == 0 { continue; }
		if i > 7 { break; }
		total = total + i;
	}
	return total; // 1+3+5+7 = 16... break at i=9 so 1+3+5+7
}`)
	if !Equal(v, Int(16)) {
		t.Fatalf("got %v, want 16", v)
	}
	v = mustEval(t, `
fn main() {
	let s = 0;
	for x in list(1, 2, 3, 4) {
		s = s + x;
	}
	return s;
}`)
	if !Equal(v, Int(10)) {
		t.Fatalf("for-in sum = %v, want 10", v)
	}
	v = mustEval(t, `
fn classify(n) {
	if n < 0 { return "neg"; }
	else if n == 0 { return "zero"; }
	else { return "pos"; }
}
fn main() { return classify(0-5) + classify(0) + classify(5); }`)
	if !Equal(v, Str("negzeropos")) {
		t.Fatalf("elif chain = %v", v)
	}
}

func TestFunctions(t *testing.T) {
	v := mustEval(t, `
fn add(a, b) { return a + b; }
fn twice(x) { return add(x, x); }
fn main() { return twice(21); }`)
	if !Equal(v, Int(42)) {
		t.Fatalf("got %v", v)
	}
	// Arity errors.
	if _, err := run(t, `fn f(a) { return a; } fn main() { return f(1, 2); }`, Options{}); err == nil {
		t.Fatal("wrong arity should fail")
	}
	if _, err := run(t, `fn main() { return nosuch(); }`, Options{}); err == nil {
		t.Fatal("unknown function should fail")
	}
	// Function without return yields null.
	v = mustEval(t, `fn f() { let x = 1; } fn main() { return f() == null; }`)
	if !Equal(v, Bool(true)) {
		t.Fatalf("missing return = %v", v)
	}
}

func TestRecursionWorksInFullMode(t *testing.T) {
	v := mustEval(t, `
fn fib(n) {
	if n < 2 { return n; }
	return fib(n - 1) + fib(n - 2);
}
fn main() { return fib(15); }`)
	if !Equal(v, Int(610)) {
		t.Fatalf("fib(15) = %v, want 610", v)
	}
}

func TestFuelExhaustion(t *testing.T) {
	_, err := run(t, `fn main() { while true { } }`, Options{Fuel: 10_000})
	if !errors.Is(err, ErrFuel) {
		t.Fatalf("infinite loop error = %v, want ErrFuel", err)
	}
	// Well-behaved scripts stay under budget.
	if _, err := run(t, `fn main() { return 1 + 1; }`, Options{Fuel: 100}); err != nil {
		t.Fatalf("small script exhausted fuel: %v", err)
	}
}

func TestDepthLimit(t *testing.T) {
	_, err := run(t, `fn f(n) { return f(n + 1); } fn main() { return f(0); }`,
		Options{MaxDepth: 32, Fuel: 1_000_000})
	if !errors.Is(err, ErrDepth) {
		t.Fatalf("runaway recursion error = %v, want ErrDepth", err)
	}
}

func TestHostBuiltinsAndLog(t *testing.T) {
	var logged []string
	calls := 0
	opts := Options{
		Log: func(s string) { logged = append(logged, s) },
		Builtins: []Builtin{{
			Name: "spawn", MinArgs: 1, MaxArgs: 1,
			Fn: func(args []Value) (Value, error) {
				calls++
				n, _ := args[0].AsInt()
				return Int(n * 2), nil
			},
		}},
	}
	v, err := run(t, `fn main() { log("hello", 42); return spawn(21); }`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, Int(42)) || calls != 1 {
		t.Fatalf("spawn result = %v, calls = %d", v, calls)
	}
	if len(logged) != 1 || logged[0] != "hello 42" {
		t.Fatalf("logged = %q", logged)
	}
}

func TestTopLevelRunAndGlobals(t *testing.T) {
	prog, err := Parse(`
let counter = 0;
fn bump() { counter = counter + 1; return counter; }
`)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(prog, Options{})
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 3; want++ {
		v, err := in.Call("bump")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := v.AsInt(); got != want {
			t.Fatalf("bump = %d, want %d", got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`fn main( { }`,
		`fn main() { let = 3; }`,
		`fn main() { return 1 +; }`,
		`fn main() { if x { }`,
		`fn f(a, a) { }`,
		`fn f() {} fn f() {}`,
		`let x = "unterminated`,
		`let x = 1.2.3;`,
		`let x = @;`,
		`fn main() { for x list(1) { } }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRuntimeTypeErrors(t *testing.T) {
	bad := []string{
		`fn main() { return 1 + "a"; }`,
		`fn main() { return "a" * 2; }`,
		`fn main() { if 3 { } }`,
		`fn main() { return 1 / 0; }`,
		`fn main() { return 1 % 0; }`,
		`fn main() { return -"s"; }`,
		`fn main() { return !"s"; }`,
		`fn main() { for x in 3 { } }`,
		`fn main() { return sqrt("x"); }`,
		`fn main() { return len(3); }`,
		`fn main() { break; }`,
	}
	for _, src := range bad {
		if _, err := run(t, src, Options{}); err == nil {
			t.Errorf("run(%q) should fail", src)
		}
	}
}

func TestCheckRestricted(t *testing.T) {
	// Clean script passes.
	prog, err := Parse(`
fn on_tick(self) {
	if nearby_count(self) > 3 { set_flag(self); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckRestricted(prog); len(v) != 0 {
		t.Fatalf("clean script flagged: %v", v)
	}

	// While loop rejected.
	prog, _ = Parse(`fn f() { while true { } }`)
	if v := CheckRestricted(prog); len(v) != 1 || !strings.Contains(v[0].Msg, "while") {
		t.Fatalf("while violations = %v", v)
	}

	// For-in rejected, including nested inside if.
	prog, _ = Parse(`fn f(xs) { if true { for x in xs { } } }`)
	if v := CheckRestricted(prog); len(v) != 1 || !strings.Contains(v[0].Msg, "for-in") {
		t.Fatalf("for violations = %v", v)
	}

	// Top-level loop rejected.
	prog, _ = Parse(`let i = 0; while i < 3 { i = i + 1; }`)
	if v := CheckRestricted(prog); len(v) != 1 {
		t.Fatalf("top-level loop violations = %v", v)
	}

	// Direct recursion rejected.
	prog, _ = Parse(`fn f(n) { return f(n); }`)
	if v := CheckRestricted(prog); len(v) != 1 || !strings.Contains(v[0].Msg, "recursion") {
		t.Fatalf("direct recursion violations = %v", v)
	}

	// Mutual recursion rejected: both functions flagged.
	prog, _ = Parse(`fn a() { return b(); } fn b() { return a(); }`)
	if v := CheckRestricted(prog); len(v) != 2 {
		t.Fatalf("mutual recursion violations = %v", v)
	}

	// Non-recursive call chains pass.
	prog, _ = Parse(`fn a() { return b(); } fn b() { return c(); } fn c() { return 1; }`)
	if v := CheckRestricted(prog); len(v) != 0 {
		t.Fatalf("chain flagged: %v", v)
	}

	// Calls to builtins (undeclared names) are not recursion.
	prog, _ = Parse(`fn a() { return sqrt(4.0); }`)
	if v := CheckRestricted(prog); len(v) != 0 {
		t.Fatalf("builtin call flagged: %v", v)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Line: 3, Msg: "nope"}
	if s := v.String(); !strings.Contains(s, "3") || !strings.Contains(s, "nope") {
		t.Fatalf("String() = %q", s)
	}
}

func TestValueConversions(t *testing.T) {
	if s := List(Int(1), Str("a")).String(); s != "[1, a]" {
		t.Fatalf("list String = %q", s)
	}
	if !Equal(FromEntity(entity.Float(2.5)), Float(2.5)) {
		t.Fatal("FromEntity float failed")
	}
}

func TestFuelUsedReporting(t *testing.T) {
	prog, _ := Parse(`fn main() { let i = 0; while i < 100 { i = i + 1; } }`)
	in := NewInterp(prog, Options{Fuel: 100_000})
	if _, err := in.Call("main"); err != nil {
		t.Fatal(err)
	}
	if used := in.FuelUsed(); used < 100 || used > 10_000 {
		t.Fatalf("FuelUsed = %d, expected a few hundred", used)
	}
}

func TestClonesRunConcurrently(t *testing.T) {
	prog, err := Parse(`fn work() { let s = 0; let i = 0; while i < 200 { s = s + i; i = i + 1; } return s; }`)
	if err != nil {
		t.Fatal(err)
	}
	// One shared Program, one interpreter per goroutine.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		in := NewInterp(prog, Options{Fuel: 1 << 20})
		wg.Add(1)
		go func(g int, in *Interp) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v, err := in.Call("work")
				if err != nil {
					errs[g] = err
					return
				}
				if !Equal(v, Int(19900)) {
					errs[g] = fmt.Errorf("work = %v", v)
					return
				}
			}
		}(g, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
