package content

// Trigger-body lint: the effect-aware trigger pipeline makes same-round
// writes to one entity last-write-win, so the classic read-modify-write
// accumulation idiom — set(x, "col", get(x, "col") + d) — silently
// drops increments when two activations target the same entity in one
// cascade round. The additive effect (`add`) combines commutatively and
// is the correct spelling. The lint flags the pattern at compile time
// as a non-fatal warning: existing packs still load (direct-trigger
// hosts depend on the old semantics), but authors get pointed at the
// migration hazard before it bites.

import (
	"fmt"
	"strings"

	"gamedb/internal/gslplan"
	"gamedb/internal/script"
)

// Warning is one non-fatal content-pack lint finding. Compile collects
// them on Compiled.Warnings; packs with warnings still load.
type Warning struct {
	// Trigger names the rule whose body tripped the lint; empty for
	// script findings.
	Trigger string
	// Script names the behavior script the finding is about; empty for
	// trigger findings.
	Script string
	// Line is the source line inside the offending program.
	Line int
	// Msg describes the finding and the fix.
	Msg string
}

func (w Warning) String() string {
	if w.Script != "" {
		return fmt.Sprintf("script %q: line %d: %s", w.Script, w.Line, w.Msg)
	}
	return fmt.Sprintf("trigger %q: line %d: %s", w.Trigger, w.Line, w.Msg)
}

// planScript lowers a behavior script's on_tick onto a set-at-a-time
// query plan (cs.Plan). When the body is outside the compilable subset
// it records the first offending construct in cs.Fallback and returns
// the advisory warning naming it: the script runs on the per-entity
// interpreter — authors chasing tick time want to know. Scripts without
// an on_tick never run as behaviors and are left alone.
func planScript(cs *CompiledScript) []Warning {
	if cs.Prog.Fns[gslplan.EntryFn] == nil {
		return nil
	}
	p, err := gslplan.Compile(cs.Name, cs.Prog, gslplan.EntryFn, 1)
	if err == nil {
		cs.Plan = p
		return nil
	}
	var line int
	line, cs.Fallback = gslplan.Reason(err)
	return []Warning{{
		Script: cs.Name,
		Line:   line,
		Msg:    fmt.Sprintf("on_tick stays on the per-entity interpreter: %s", cs.Fallback),
	}}
}

// planTrigger lowers one side of a trigger rule (element is "<when>" or
// "<do>") onto a query plan. When the body is outside the compilable
// subset it returns the first offending construct instead, plus the
// advisory warning naming it — the trigger counterpart of planScript.
func planTrigger(rule, element string, prog *script.Program, entry string) (*gslplan.Program, string, []Warning) {
	p, err := gslplan.Compile(rule, prog, entry, TriggerArgs)
	if err == nil {
		return p, "", nil
	}
	line, reason := gslplan.Reason(err)
	return nil, reason, []Warning{{
		Trigger: rule,
		Line:    line,
		Msg:     fmt.Sprintf("%s stays on the per-invocation interpreter: %s", element, reason),
	}}
}

// ExplainPlans renders how the rule will execute. A rule has two sides,
// so both results can be non-empty: explain joins the Explain text of
// the sides that compiled (<when> first), fallback names the sides that
// stay on the interpreter and the first construct that keeps them there.
func (ct *CompiledTrigger) ExplainPlans() (explain, fallback string) {
	var fails []string
	if ct.Cond != nil {
		if ct.CondPlan != nil {
			explain += ct.CondPlan.Explain()
		} else {
			fails = append(fails, "<when>: "+ct.CondFallback)
		}
	}
	if ct.ActPlan != nil {
		explain += ct.ActPlan.Explain()
	} else {
		fails = append(fails, "<do>: "+ct.ActFallback)
	}
	return explain, strings.Join(fails, "; ")
}

// lintTrigger walks a compiled trigger's action program for
// set(T, "col", … get(T, "col") …) accumulation patterns and returns a
// warning per occurrence.
func lintTrigger(ct *CompiledTrigger) []Warning {
	if ct.Act == nil {
		return nil
	}
	var out []Warning
	for _, name := range ct.Act.FnOrder {
		lintStmts(ct, ct.Act.Fns[name].Body.Stmts, &out)
	}
	lintStmts(ct, ct.Act.Stmts, &out)
	return out
}

func lintStmts(ct *CompiledTrigger, stmts []script.Stmt, out *[]Warning) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *script.ExprStmt:
			lintExpr(ct, st.E, out)
		case *script.LetStmt:
			lintExpr(ct, st.E, out)
		case *script.AssignStmt:
			lintExpr(ct, st.E, out)
		case *script.Block:
			lintStmts(ct, st.Stmts, out)
		case *script.IfStmt:
			lintExpr(ct, st.Cond, out)
			if st.Then != nil {
				lintStmts(ct, st.Then.Stmts, out)
			}
			if st.Else != nil {
				lintStmts(ct, st.Else.Stmts, out)
			}
		case *script.WhileStmt:
			lintExpr(ct, st.Cond, out)
			if st.Body != nil {
				lintStmts(ct, st.Body.Stmts, out)
			}
		case *script.ForInStmt:
			lintExpr(ct, st.Seq, out)
			if st.Body != nil {
				lintStmts(ct, st.Body.Stmts, out)
			}
		case *script.ReturnStmt:
			if st.E != nil {
				lintExpr(ct, st.E, out)
			}
		}
	}
}

// lintExpr flags set calls whose value expression reads the same
// (target, column) back through get, then keeps walking for nested
// calls.
func lintExpr(ct *CompiledTrigger, e script.Expr, out *[]Warning) {
	call, ok := e.(*script.CallExpr)
	if !ok {
		switch x := e.(type) {
		case *script.BinExpr:
			lintExpr(ct, x.L, out)
			lintExpr(ct, x.R, out)
		case *script.UnExpr:
			lintExpr(ct, x.E, out)
		}
		return
	}
	if call.Name == "set" && len(call.Args) == 3 {
		if col, isLit := call.Args[1].(*script.StrLit); isLit {
			if readsBack(call.Args[2], call.Args[0], col.V) {
				*out = append(*out, Warning{
					Trigger: ct.Name,
					Line:    call.Line(),
					Msg: fmt.Sprintf(
						"set(…, %q, … get(…, %q) …) accumulates through a read-modify-write; "+
							"same-round trigger writes are last-write-wins under the effect pipeline, "+
							"so concurrent activations drop increments — use add(…, %q, delta) instead",
						col.V, col.V, col.V),
				})
			}
		}
	}
	for _, a := range call.Args {
		lintExpr(ct, a, out)
	}
}

// readsBack reports whether e contains get(target, col) for the same
// target expression and column literal.
func readsBack(e script.Expr, target script.Expr, col string) bool {
	switch x := e.(type) {
	case *script.CallExpr:
		if x.Name == "get" && len(x.Args) == 2 {
			if c, isLit := x.Args[1].(*script.StrLit); isLit && c.V == col && sameExpr(x.Args[0], target) {
				return true
			}
		}
		for _, a := range x.Args {
			if readsBack(a, target, col) {
				return true
			}
		}
	case *script.BinExpr:
		return readsBack(x.L, target, col) || readsBack(x.R, target, col)
	case *script.UnExpr:
		return readsBack(x.E, target, col)
	}
	return false
}

// sameExpr reports structural equality for the simple expressions that
// plausibly name an entity: identifiers and literals. Anything more
// complex conservatively compares unequal (no warning).
func sameExpr(a, b script.Expr) bool {
	switch x := a.(type) {
	case *script.Ident:
		y, ok := b.(*script.Ident)
		return ok && x.Name == y.Name
	case *script.IntLit:
		y, ok := b.(*script.IntLit)
		return ok && x.V == y.V
	case *script.StrLit:
		y, ok := b.(*script.StrLit)
		return ok && x.V == y.V
	}
	return false
}
