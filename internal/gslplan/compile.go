package gslplan

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/query"
	"gamedb/internal/script"
)

// EntryFn is the entry point of a behavior script: the function the
// world calls once per entity per tick with the entity's id.
const EntryFn = "on_tick"

// NotCompilable reports the first construct that kept a behavior body
// off the compiled path. The world falls back to the interpreter for
// that behavior and the content linter surfaces the construct name.
type NotCompilable struct {
	Line      int
	Construct string
}

func (e *NotCompilable) Error() string {
	return fmt.Sprintf("gslplan: line %d: not compilable: %s", e.Line, e.Construct)
}

// Reason splits a Compile error into what a fallback report needs: the
// source line and first offending construct of a *NotCompilable, or
// line 0 and the error text for anything else.
func Reason(err error) (line int, construct string) {
	var nc *NotCompilable
	if errors.As(err, &nc) {
		return nc.Line, nc.Construct
	}
	return 0, err.Error()
}

func notCompilable(line int, format string, a ...any) error {
	return &NotCompilable{Line: line, Construct: fmt.Sprintf(format, a...)}
}

// varRef binds a name to a frame slot.
type varRef struct {
	slot int
	list bool
}

type compiler struct {
	prog     *script.Program
	scopes   []map[string]varRef
	slotName []string // scalar slot → unique display name (the query Desc)
	listName []string // list slot → display name
	ranging  []int    // list slots the enclosing for-in statements range over
	exprs    []query.Expr
	used     map[string]bool
	ntmp     int
	exp      strings.Builder
	depth    int
}

// Compile lowers the body of prog's entry function onto a set-at-a-time
// query plan: a behavior's on_tick(self), or a trigger rule's
// cond(self, amount) / act(self, amount). nargs is the number of scalar
// arguments the host passes to every Run; a function declaring a
// different number could only ever fail its call, so it is rejected
// here. The returned Program is immutable and safe to Bind from many
// workers and many worlds. A *NotCompilable error names the first
// unsupported construct.
func Compile(name string, prog *script.Program, entry string, nargs int) (*Program, error) {
	fn := prog.Fns[entry]
	if fn == nil {
		return nil, notCompilable(0, "no %q function", entry)
	}
	if len(fn.Params) != nargs {
		return nil, notCompilable(fn.Line(), "%s declares %d parameters, the host passes %d", entry, len(fn.Params), nargs)
	}
	c := &compiler{
		prog:   prog,
		scopes: []map[string]varRef{{}},
		used:   map[string]bool{},
	}
	// Parameters take scalar slots 0..nargs-1 in declaration order, which
	// is where Run copies its arguments.
	for _, p := range fn.Params {
		c.declare(p, false)
	}
	c.depth = 1
	body, err := c.compileStmts(fn.Body.Stmts)
	if err != nil {
		return nil, err
	}
	desc := query.MustDesc(c.slotName...)
	for _, q := range c.exprs {
		if err := q.Bind(desc); err != nil {
			return nil, fmt.Errorf("gslplan: internal bind error: %w", err)
		}
	}
	kind, driver := "behavior", "set-at-a-time roster scan, one pass per tick chunked across workers"
	if entry != EntryFn {
		kind, driver = "rule", "set-at-a-time scan of one cascade round's matches, chunked across workers"
	}
	header := fmt.Sprintf("%s %q: compiled plan for %s(%s)\n"+
		"  driver: %s\n"+
		"  frame: %d scalar slots, %d list slots; pure fragments lowered to query exprs\n",
		kind, name, entry, strings.Join(fn.Params, ", "), driver, len(c.slotName), len(c.listName))
	return &Program{
		name:     name,
		nParams:  nargs,
		nScalars: len(c.slotName),
		nLists:   len(c.listName),
		body:     body,
		explain:  header + c.exp.String(),
	}, nil
}

// ---------------------------------------------------------------------------
// scopes, slots, explain plumbing

func (c *compiler) push() { c.scopes = append(c.scopes, map[string]varRef{}) }
func (c *compiler) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) lookup(name string) (varRef, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if r, ok := c.scopes[i][name]; ok {
			return r, true
		}
	}
	return varRef{}, false
}

// declare allocates a fresh slot for name in the innermost scope;
// shadowing and redeclaration get new slots, so every read site is
// statically resolved to the slot its lexical scope wrote.
func (c *compiler) declare(name string, list bool) varRef {
	var ref varRef
	if list {
		c.listName = append(c.listName, name)
		ref = varRef{slot: len(c.listName) - 1, list: true}
	} else {
		ref = varRef{slot: c.newScalar(name)}
	}
	c.scopes[len(c.scopes)-1][name] = ref
	return ref
}

func (c *compiler) newScalar(base string) int {
	n := base
	for i := 2; c.used[n]; i++ {
		n = fmt.Sprintf("%s#%d", base, i)
	}
	c.used[n] = true
	c.slotName = append(c.slotName, n)
	return len(c.slotName) - 1
}

func (c *compiler) newTemp() int {
	c.ntmp++
	return c.newScalar(fmt.Sprintf("t%d", c.ntmp-1))
}

// col makes a column reference for a scalar slot and registers it for
// the final Bind pass.
func (c *compiler) col(slot int) query.Expr {
	q := query.Col(c.slotName[slot])
	c.exprs = append(c.exprs, q)
	return q
}

func (c *compiler) keep(q query.Expr) query.Expr {
	c.exprs = append(c.exprs, q)
	return q
}

func (c *compiler) line(format string, a ...any) {
	c.exp.WriteString(strings.Repeat("  ", c.depth))
	fmt.Fprintf(&c.exp, format, a...)
	c.exp.WriteByte('\n')
}

// ---------------------------------------------------------------------------
// statements

func (c *compiler) compileStmts(stmts []script.Stmt) ([]stmtNode, error) {
	out := make([]stmtNode, 0, len(stmts))
	for _, s := range stmts {
		n, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func (c *compiler) compileStmt(s script.Stmt) (stmtNode, error) {
	switch st := s.(type) {
	case *script.LetStmt:
		if call, ok := nearbyCall(st.E); ok {
			op, err := c.compileNearby(call, st.Name, -1)
			if err != nil {
				return nil, err
			}
			c.line("let %s := %s", st.Name, op.text)
			return &listStmt{op: op}, nil
		}
		v, err := c.compileExpr(st.E) // RHS resolves in the outer scope
		if err != nil {
			return nil, err
		}
		ref := c.declare(st.Name, false)
		c.line("let %s := %s", c.slotName[ref.slot], v.render())
		return &storeStmt{dest: ref.slot, v: v}, nil

	case *script.AssignStmt:
		ref, ok := c.lookup(st.Name)
		if !ok {
			return nil, notCompilable(st.Line(), "assignment to undeclared variable %q", st.Name)
		}
		call, isNearby := nearbyCall(st.E)
		if ref.list {
			if !isNearby {
				return nil, notCompilable(st.Line(), "list variable %q reassigned to a non-nearby expression", st.Name)
			}
			op, err := c.compileNearby(call, "", ref.slot)
			if err != nil {
				return nil, err
			}
			c.line("%s := %s", st.Name, op.text)
			return &listStmt{op: op}, nil
		}
		if isNearby {
			return nil, notCompilable(st.Line(), "nearby result assigned to scalar variable %q", st.Name)
		}
		v, err := c.compileExpr(st.E)
		if err != nil {
			return nil, err
		}
		c.line("%s := %s", c.slotName[ref.slot], v.render())
		return &storeStmt{dest: ref.slot, v: v}, nil

	case *script.ExprStmt:
		if call, ok := nearbyCall(st.E); ok {
			op, err := c.compileNearby(call, "_", -1)
			if err != nil {
				return nil, err
			}
			c.line("discard %s", op.text)
			return &listStmt{op: op}, nil
		}
		v, err := c.compileExpr(st.E)
		if err != nil {
			return nil, err
		}
		c.line("%s", v.render())
		return &exprStmt{v: v}, nil

	case *script.Block:
		c.push()
		body, err := c.compileStmts(st.Stmts)
		c.pop()
		if err != nil {
			return nil, err
		}
		return &blockStmt{body: body}, nil

	case *script.IfStmt:
		cond, err := c.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		c.line("if %s:", cond.render())
		c.push()
		c.depth++
		then, err := c.compileStmts(st.Then.Stmts)
		c.depth--
		c.pop()
		if err != nil {
			return nil, err
		}
		var els []stmtNode
		if st.Else != nil {
			c.line("else:")
			c.push()
			c.depth++
			els, err = c.compileStmts(st.Else.Stmts)
			c.depth--
			c.pop()
			if err != nil {
				return nil, err
			}
		}
		return &ifStmt{cond: cond, then: then, els: els}, nil

	case *script.ForInStmt:
		f := &forStmt{}
		var seqText string
		switch seq := st.Seq.(type) {
		case *script.Ident:
			ref, ok := c.lookup(seq.Name)
			if !ok {
				return nil, notCompilable(seq.Line(), "reference to undefined variable %q", seq.Name)
			}
			if !ref.list {
				return nil, notCompilable(seq.Line(), "for-in over scalar variable %q", seq.Name)
			}
			f.seqSlot = ref.slot
			f.seqCost = 1 // the ident node
			seqText = seq.Name
		default:
			call, ok := nearbyCall(st.Seq)
			if !ok {
				return nil, notCompilable(st.Line(), "for-in over a non-list expression")
			}
			op, err := c.compileNearby(call, "_seq", -1)
			if err != nil {
				return nil, err
			}
			f.seqOps = []opNode{op}
			f.seqSlot = op.dest
			seqText = op.text
		}
		c.push()
		loopVar := c.declare(st.Var, false)
		f.varSlot = loopVar.slot
		c.line("for %s in %s:  -- scan neighbor list", c.slotName[loopVar.slot], seqText)
		c.depth++
		c.ranging = append(c.ranging, f.seqSlot)
		body, err := c.compileStmts(st.Body.Stmts)
		c.ranging = c.ranging[:len(c.ranging)-1]
		c.depth--
		c.pop()
		if err != nil {
			return nil, err
		}
		f.body = body
		return f, nil

	case *script.ReturnStmt:
		var v valPlan
		if st.E != nil {
			var err error
			v, err = c.compileExpr(st.E)
			if err != nil {
				return nil, err
			}
			c.line("return %s", v.render())
		} else {
			c.line("return")
		}
		return &returnStmt{v: v}, nil

	case *script.WhileStmt:
		return nil, notCompilable(st.Line(), "while loop")
	case *script.BreakStmt:
		return nil, notCompilable(st.Line(), "break")
	case *script.ContinueStmt:
		return nil, notCompilable(st.Line(), "continue")
	}
	return nil, notCompilable(s.Line(), "statement %T", s)
}

// nearbyCall reports whether e is a call to the nearby builtin (which
// always shadows any same-named user function, as in the interpreter).
func nearbyCall(e script.Expr) (*script.CallExpr, bool) {
	call, ok := e.(*script.CallExpr)
	if !ok || call.Name != "nearby" {
		return nil, false
	}
	return call, true
}

// compileNearby builds the spatial-probe op. With dest < 0 a new list
// slot named after declare (declared in the current scope when name is
// non-empty and not "_"/"_seq") is allocated; otherwise the existing
// slot is reused. Arguments compile in the outer scope before any
// declaration, matching interpreter evaluation order.
func (c *compiler) compileNearby(call *script.CallExpr, name string, dest int) (*nearbyOp, error) {
	if len(call.Args) != 2 {
		return nil, notCompilable(call.Line(), "wrong argument count for %q", "nearby")
	}
	idArg, err := c.compileExpr(call.Args[0])
	if err != nil {
		return nil, err
	}
	radArg, err := c.compileExpr(call.Args[1])
	if err != nil {
		return nil, err
	}
	if dest < 0 {
		switch name {
		case "_", "_seq":
			c.listName = append(c.listName, name)
			dest = len(c.listName) - 1
		default:
			dest = c.declare(name, true).slot
		}
	}
	op := &nearbyOp{
		dest:   dest,
		fresh:  slices.Contains(c.ranging, dest),
		idArg:  idArg,
		radArg: radArg,
		text:   fmt.Sprintf("nearby(%s, %s)  -- spatial-index probe, reads (id.x, id.y)", idArg.render(), radArg.render()),
	}
	return op, nil
}

// ---------------------------------------------------------------------------
// expressions

// asPure coerces any fragment to a pure one, hoisting dynamic and/or
// chains into a temp slot referenced as a column.
func (c *compiler) asPure(v valPlan) pureVal {
	if p, ok := v.(pureVal); ok {
		return p
	}
	slot := c.newTemp()
	return pureVal{
		ops: []opNode{&hoistOp{dest: slot, v: v, text: fmt.Sprintf("%s := %s", c.slotName[slot], v.render())}},
		q:   c.col(slot),
	}
}

func (c *compiler) compileExpr(e script.Expr) (valPlan, error) {
	switch ex := e.(type) {
	case *script.IntLit:
		return pureVal{q: c.keep(query.ConstInt(ex.V)), cost: 1}, nil
	case *script.FloatLit:
		return pureVal{q: c.keep(query.ConstFloat(ex.V)), cost: 1}, nil
	case *script.StrLit:
		return pureVal{q: c.keep(query.ConstStr(ex.V)), cost: 1}, nil
	case *script.BoolLit:
		return pureVal{q: c.keep(query.ConstBool(ex.V)), cost: 1}, nil
	case *script.NullLit:
		return pureVal{q: c.keep(query.Const(entity.Null())), cost: 1}, nil
	case *script.Ident:
		ref, ok := c.lookup(ex.Name)
		if !ok {
			return nil, notCompilable(ex.Line(), "reference to undefined variable %q", ex.Name)
		}
		if ref.list {
			return nil, notCompilable(ex.Line(), "list variable %q used as a scalar", ex.Name)
		}
		return pureVal{q: c.col(ref.slot), cost: 1}, nil
	case *script.UnExpr:
		sub, err := c.compileExpr(ex.E)
		if err != nil {
			return nil, err
		}
		p := c.asPure(sub)
		q := query.Not(p.q)
		if ex.Neg {
			q = query.Neg(p.q)
		}
		return pureVal{ops: p.ops, q: c.keep(q), cost: p.cost + 1}, nil
	case *script.BinExpr:
		l, err := c.compileExpr(ex.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(ex.R)
		if err != nil {
			return nil, err
		}
		if ex.Op == script.OpAnd || ex.Op == script.OpOr {
			return logicalVal{or: ex.Op == script.OpOr, l: l, r: r}, nil
		}
		lp, rp := c.asPure(l), c.asPure(r)
		mk, ok := binBuilders[ex.Op]
		if !ok {
			return nil, notCompilable(ex.Line(), "operator %v", ex.Op)
		}
		ops := make([]opNode, 0, len(lp.ops)+len(rp.ops))
		ops = append(append(ops, lp.ops...), rp.ops...)
		return pureVal{ops: ops, q: c.keep(mk(lp.q, rp.q)), cost: lp.cost + rp.cost + 1}, nil
	case *script.CallExpr:
		return c.compileCall(ex)
	}
	return nil, notCompilable(e.Line(), "expression %T", e)
}

var binBuilders = map[script.BinOp]func(l, r query.Expr) query.Expr{
	script.OpAdd: query.Add,
	script.OpSub: query.Sub,
	script.OpMul: query.Mul,
	script.OpDiv: query.Div,
	script.OpMod: query.Mod,
	script.OpEq:  query.Eq,
	script.OpNe:  query.Ne,
	script.OpLt:  query.Lt,
	script.OpLe:  query.Le,
	script.OpGt:  query.Gt,
	script.OpGe:  query.Ge,
}

// builtinSpec describes a compilable builtin's arity and kind.
type builtinSpec struct {
	kind     bkind
	min, max int
}

var builtinSpecs = map[string]builtinSpec{
	"get":         {bGet, 2, 2},
	"dist":        {bDist, 2, 2},
	"pos_x":       {bPosX, 1, 1},
	"pos_y":       {bPosY, 1, 1},
	"tick":        {bTick, 0, 0},
	"rand_float":  {bRand, 0, 0},
	"set":         {bSet, 3, 3},
	"add":         {bAdd, 3, 3},
	"emit":        {bEmit, 2, 3},
	"move_toward": {bMoveToward, 4, 4},
	"len":         {bLen, 1, 1},
	"abs":         {bAbs, 1, 1},
	"min":         {bMin, 2, 2},
	"max":         {bMax, 2, 2},
	"sqrt":        {bSqrt, 1, 1},
	"floor":       {bFloor, 1, 1},
}

func (c *compiler) compileCall(ex *script.CallExpr) (valPlan, error) {
	if ex.Name == "nearby" {
		return nil, notCompilable(ex.Line(), "nearby result used as a scalar value")
	}
	spec, ok := builtinSpecs[ex.Name]
	if !ok {
		if _, isFn := c.prog.Fns[ex.Name]; isFn {
			return nil, notCompilable(ex.Line(), "call to user function %q", ex.Name)
		}
		return nil, notCompilable(ex.Line(), "builtin %q", ex.Name)
	}
	if len(ex.Args) < spec.min || len(ex.Args) > spec.max {
		return nil, notCompilable(ex.Line(), "wrong argument count for %q", ex.Name)
	}
	// len over a list variable short-circuits to a frame read.
	if spec.kind == bLen {
		if id, ok := ex.Args[0].(*script.Ident); ok {
			if ref, found := c.lookup(id.Name); found && ref.list {
				slot := c.newTemp()
				op := &lenListOp{
					dest: slot,
					src:  ref.slot,
					text: fmt.Sprintf("%s := len(%s)", c.slotName[slot], id.Name),
				}
				return pureVal{ops: []opNode{op}, q: c.col(slot)}, nil
			}
		}
	}
	args := make([]valPlan, len(ex.Args))
	for i, a := range ex.Args {
		v, err := c.compileExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	slot := c.newTemp()
	rendered := make([]string, len(args))
	for i, a := range args {
		rendered[i] = a.render()
	}
	op := &callOp{
		dest: slot,
		kind: spec.kind,
		args: args,
		text: fmt.Sprintf("%s := %s(%s)", c.slotName[slot], ex.Name, strings.Join(rendered, ", ")),
	}
	return pureVal{ops: []opNode{op}, q: c.col(slot)}, nil
}
