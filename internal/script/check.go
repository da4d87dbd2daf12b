package script

import "fmt"

// Violation is one restricted-mode rule breach.
type Violation struct {
	Line int
	Msg  string
}

// String renders the violation.
func (v Violation) String() string { return fmt.Sprintf("line %d: %s", v.Line, v.Msg) }

// CheckRestricted enforces the paper's ref-[10] regime: no while loops,
// no for-in loops, and no recursion (direct or mutual). It returns every
// violation so the content pipeline can report them all to the designer
// at once. An empty result means the script is admissible.
func CheckRestricted(p *Program) []Violation {
	var out []Violation
	for _, name := range p.FnOrder {
		out = append(out, findLoops(p.Fns[name].Body)...)
	}
	for _, s := range p.Stmts {
		out = append(out, findLoopsStmt(s)...)
	}
	out = append(out, findRecursion(p)...)
	return out
}

func findLoops(b *Block) []Violation {
	var out []Violation
	for _, s := range b.Stmts {
		out = append(out, findLoopsStmt(s)...)
	}
	return out
}

func findLoopsStmt(s Stmt) []Violation {
	switch st := s.(type) {
	case *WhileStmt:
		out := []Violation{{Line: st.Line(), Msg: "while loop forbidden in restricted mode"}}
		return append(out, findLoops(st.Body)...)
	case *ForInStmt:
		out := []Violation{{Line: st.Line(), Msg: "for-in loop forbidden in restricted mode"}}
		return append(out, findLoops(st.Body)...)
	case *IfStmt:
		out := findLoops(st.Then)
		if st.Else != nil {
			out = append(out, findLoops(st.Else)...)
		}
		return out
	case *Block:
		return findLoops(st)
	default:
		return nil
	}
}

// findRecursion reports every function on a call cycle.
func findRecursion(p *Program) []Violation {
	var out []Violation
	for _, name := range RecursiveFns(p) {
		out = append(out, Violation{
			Line: p.Fns[name].Line(),
			Msg:  fmt.Sprintf("function %q participates in recursion, forbidden in restricted mode", name),
		})
	}
	return out
}

// RecursiveFns builds the call graph among declared functions and
// returns, in declaration order, every function on a cycle (direct or
// mutual recursion).
func RecursiveFns(p *Program) []string {
	calls := make(map[string][]string, len(p.Fns))
	for name, fn := range p.Fns {
		set := map[string]bool{}
		collectCalls(fn.Body, p, set)
		for callee := range set {
			calls[name] = append(calls[name], callee)
		}
	}
	// Iterative DFS cycle detection with colors.
	const (
		white, gray, black = 0, 1, 2
	)
	color := make(map[string]int, len(p.Fns))
	onCycle := map[string]bool{}
	var visit func(string, []string)
	visit = func(n string, stack []string) {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range calls[n] {
			switch color[m] {
			case white:
				visit(m, stack)
			case gray:
				// Everything from m to the top of the stack is cyclic.
				mark := false
				for _, s := range stack {
					if s == m {
						mark = true
					}
					if mark {
						onCycle[s] = true
					}
				}
			}
		}
		color[n] = black
	}
	for _, name := range p.FnOrder {
		if color[name] == white {
			visit(name, nil)
		}
	}
	var out []string
	for _, name := range p.FnOrder {
		if onCycle[name] {
			out = append(out, name)
		}
	}
	return out
}

func collectCalls(b *Block, p *Program, out map[string]bool) {
	for _, s := range b.Stmts {
		collectCallsStmt(s, p, out)
	}
}

func collectCallsStmt(s Stmt, p *Program, out map[string]bool) {
	switch st := s.(type) {
	case *LetStmt:
		collectCallsExpr(st.E, p, out)
	case *AssignStmt:
		collectCallsExpr(st.E, p, out)
	case *ExprStmt:
		collectCallsExpr(st.E, p, out)
	case *Block:
		collectCalls(st, p, out)
	case *IfStmt:
		collectCallsExpr(st.Cond, p, out)
		collectCalls(st.Then, p, out)
		if st.Else != nil {
			collectCalls(st.Else, p, out)
		}
	case *WhileStmt:
		collectCallsExpr(st.Cond, p, out)
		collectCalls(st.Body, p, out)
	case *ForInStmt:
		collectCallsExpr(st.Seq, p, out)
		collectCalls(st.Body, p, out)
	case *ReturnStmt:
		if st.E != nil {
			collectCallsExpr(st.E, p, out)
		}
	}
}

func collectCallsExpr(e Expr, p *Program, out map[string]bool) {
	switch ex := e.(type) {
	case *CallExpr:
		if _, declared := p.Fns[ex.Name]; declared {
			out[ex.Name] = true
		}
		for _, a := range ex.Args {
			collectCallsExpr(a, p, out)
		}
	case *BinExpr:
		collectCallsExpr(ex.L, p, out)
		collectCallsExpr(ex.R, p, out)
	case *UnExpr:
		collectCallsExpr(ex.E, p, out)
	}
}
