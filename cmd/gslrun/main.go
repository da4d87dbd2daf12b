// Command gslrun parses and executes a GSL script file: the standalone
// harness designers use to test behavior scripts outside the engine.
//
//	gslrun script.gsl              # run top-level statements, then main()
//	gslrun -restricted script.gsl  # enforce the no-loop/no-recursion regime
//	gslrun -check script.gsl       # parse + restricted check only
//	gslrun -plan script.gsl        # print the compiled on_tick query plan
//	gslrun -plan pack.xml          # ... of every script and trigger rule in a content pack
package main

import (
	"errors"
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

// planScript prints a behavior script's on_tick plan, or why it stays
// on the interpreter. It reports false on an internal compile error.
func planScript(name string, prog *script.Program) bool {
	p, err := gslplan.Compile(name, prog, gslplan.EntryFn, 1)
	if err != nil {
		var nc *gslplan.NotCompilable
		if !errors.As(err, &nc) {
			fmt.Fprintf(os.Stderr, "gslrun: %v\n", err)
			return false
		}
		fmt.Printf("interpreter fallback: %s (line %d)\n", nc.Construct, nc.Line)
		return true
	}
	fmt.Print(p.Explain())
	return true
}

// planPack prints the plan (or the fallback reason) of every behavior
// script and of both sides of every trigger rule in a content pack —
// the plans a world loading the pack will run.
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
		if cs.Prog.Fns[gslplan.EntryFn] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("script %q: ", name)
		if cs := c.Scripts[name]; cs.Plan != nil {
			fmt.Print(cs.Plan.Explain())
		} else {
			fmt.Printf("interpreter fallback: %s\n", cs.Fallback)
		}
	}
	for _, ct := range c.Triggers {
		explain, fallback := ct.ExplainPlans()
		fmt.Print(explain)
		if fallback != "" {
			fmt.Printf("rule %q: interpreter fallback: %s\n", ct.Name, fallback)
		}
	}
	return true
}

func main() {
	restricted := flag.Bool("restricted", false, "enforce restricted mode (no loops, no recursion)")
	checkOnly := flag.Bool("check", false, "only parse and run restricted-mode checks")
	plan := flag.Bool("plan", false, "print the compiled on_tick query plan (or the fallback reason); given a content pack (.xml), of every script and trigger rule in it")
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
