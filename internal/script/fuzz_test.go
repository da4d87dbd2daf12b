package script_test

import (
	"errors"
	"testing"

	"gamedb/internal/gslplan"
	"gamedb/internal/script"
)

// FuzzParse feeds arbitrary bytes through the load path a content
// pack's GSL takes — Lex, Parse, CheckRestricted, and gslplan.Compile of
// every declared function as an entry point — and requires a structured
// outcome at every step: a *script.Error with a source line from the
// lexer and the parser, violations with a source line from the checker,
// a plan or a *gslplan.NotCompilable from the compiler. Never a panic.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`fn on_tick(self) { let ns = nearby(self, 8.0); for id in ns { add(id, "n", 1); } }`,
		`fn deeper(n) { return deeper(n + 1); } fn on_tick(self) { deeper(0); }`,
		`fn on_tick(self) { let i = 0; while i < 3 { i = i + 1; if i == 2 { continue; } break; } }`,
		`fn f(a, b) { return a * -b % 3 / 2.5 >= 1 && !(a != b) || null == "s"; }`,
		`let g = 1; fn main() { return list(g, push(list(), 2)); }`,
		`fn on_tick(self) { spawn("x", 1.0, 2.0); despawn(self); emit("e", self, 3); }`,
		`fn f(a, a) { }`,
		`fn main( { }`,
		`let x = "unterminated`,
		`let x = 1.2.3; // comment`,
		`fn main() { return ((((((((1)))))))); }`,
		"fn main() { return 99999999999999999999; }",
		"\x00\xff{}();",
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			t.Skip("parser recursion depth is not what this target bounds")
		}
		src := string(data)
		if _, err := script.Lex(src); err != nil {
			requireLineError(t, src, err)
		}
		prog, err := script.Parse(src)
		if err != nil {
			requireLineError(t, src, err)
			return
		}
		for _, v := range script.CheckRestricted(prog) {
			if v.Line < 1 {
				t.Fatalf("%q: violation without a source line: %v", src, v)
			}
		}
		for _, name := range prog.FnOrder {
			if _, err := gslplan.Compile(name, prog, name, len(prog.Fns[name].Params)); err != nil {
				var nc *gslplan.NotCompilable
				if !errors.As(err, &nc) || nc.Construct == "" {
					t.Fatalf("%q: compiling %s: unstructured error %v", src, name, err)
				}
			}
		}
	})
}

func requireLineError(t *testing.T, src string, err error) {
	t.Helper()
	var se *script.Error
	if !errors.As(err, &se) || se.Line < 1 {
		t.Fatalf("%q: unstructured error %T %v", src, err, err)
	}
}
