// Command gslrun parses and executes a GSL script file: the standalone
// harness designers use to test behavior scripts outside the engine.
//
//	gslrun script.gsl              # run top-level statements, then main()
//	gslrun -restricted script.gsl  # enforce the no-loop/no-recursion regime
//	gslrun -check script.gsl       # parse + restricted check only
//	gslrun -plan script.gsl        # print the compiled on_tick plan; exit 1 if it does not compile
//	gslrun -plan pack.xml          # ... of every script and trigger rule in a content pack
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gamedb/internal/content"
	"gamedb/internal/gslplan"
	"gamedb/internal/script"
)

// planScript prints a behavior script's on_tick plan. It reports false,
// naming the line and the construct, when the script does not compile.
func planScript(name string, prog *script.Program) bool {
	p, err := gslplan.Compile(name, prog, gslplan.EntryFn, 1)
	if err != nil {
		line, construct := gslplan.Reason(err)
		fmt.Fprintf(os.Stderr, "gslrun: line %d: not compilable: %s\n", line, construct)
		return false
	}
	fmt.Print(p.Explain())
	return true
}

// planPack prints the plan of every behavior script and of both sides of
// every trigger rule in a content pack — the plans a world loading the
// pack will run. A pack with a body that does not compile is rejected
// like any other load error.
func planPack(src string) bool {
	c, errs := content.LoadAndCompile(strings.NewReader(src))
	if len(errs) > 0 {
		fmt.Fprintln(os.Stderr, "gslrun: content pack rejected:")
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "  %v\n", err)
		}
		return false
	}
	names := make([]string, 0, len(c.Scripts))
	for name, cs := range c.Scripts {
		if cs.Plan != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("script %q: %s", name, c.Scripts[name].Plan.Explain())
	}
	for _, ct := range c.Triggers {
		fmt.Print(ct.ExplainPlans())
	}
	return true
}

func main() {
	restricted := flag.Bool("restricted", false, "enforce restricted mode (no loops, no recursion)")
	checkOnly := flag.Bool("check", false, "only parse and run restricted-mode checks")
	plan := flag.Bool("plan", false, "print the compiled on_tick plan (exit 1, naming the line and construct, if it does not compile); given a content pack (.xml), of every script and trigger rule in it")
	fuel := flag.Int64("fuel", script.DefaultFuel, "fuel budget per run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gslrun [-restricted] [-check] [-plan] [-fuel N] <script.gsl | -plan pack.xml>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gslrun: %v\n", err)
		os.Exit(1)
	}
	if *plan && strings.EqualFold(filepath.Ext(flag.Arg(0)), ".xml") {
		if !planPack(string(raw)) {
			os.Exit(1)
		}
		return
	}
	prog, err := script.Parse(string(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gslrun: %v\n", err)
		os.Exit(1)
	}
	if *plan {
		name := strings.TrimSuffix(filepath.Base(flag.Arg(0)), filepath.Ext(flag.Arg(0)))
		if !planScript(name, prog) {
			os.Exit(1)
		}
		return
	}
	violations := script.CheckRestricted(prog)
	if *checkOnly {
		if len(violations) == 0 {
			fmt.Println("ok: script is admissible in restricted mode")
			return
		}
		for _, v := range violations {
			fmt.Printf("restricted: %s\n", v)
		}
		os.Exit(1)
	}
	if *restricted && len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "gslrun: script rejected in restricted mode:")
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	in := script.NewInterp(prog, script.Options{
		Fuel: *fuel,
		Log:  func(s string) { fmt.Println(s) },
	})
	if err := in.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "gslrun: %v\n", err)
		os.Exit(1)
	}
	if _, ok := prog.Fns["main"]; ok {
		v, err := in.Call("main")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gslrun: %v\n", err)
			os.Exit(1)
		}
		if !v.IsNull() {
			fmt.Printf("main() = %s\n", v)
		}
	}
	fmt.Printf("fuel used: %d\n", in.FuelUsed())
}
