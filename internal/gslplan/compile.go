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

// NotCompilable reports the first construct that keeps an entry point
// from lowering onto a plan. content.Compile turns it into a load error.
type NotCompilable struct {
	Line      int
	Construct string
}

func (e *NotCompilable) Error() string {
	return fmt.Sprintf("gslplan: line %d: not compilable: %s", e.Line, e.Construct)
}

// Reason splits a Compile error into what a load error needs: the source
// line and first offending construct of a *NotCompilable, or line 0 and
// the error text for anything else.
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

// fnInfo is a compiled user function and the longest call chain it
// starts (1 when it calls no user function).
type fnInfo struct {
	fn     *fnPlan
	height int
}

// fnScope is the compiler state local to the function body being
// compiled, saved and restored around each user function.
type fnScope struct {
	scopes   []map[string]varRef
	ranging  []int // list slots the enclosing for-in statements range over
	loops    int   // enclosing loops, for break / continue
	exp      *strings.Builder
	depth    int
	height   int // longest call chain from this function so far
	deepLine int // the call that set height
}

type compiler struct {
	fnScope
	prog      *script.Program
	recursive map[string]bool
	fns       map[string]*fnInfo
	slotName  []string // scalar slot → unique display name
	listName  []string // list slot → display name
	used      map[string]bool
	ntmp      int
	fnExp     strings.Builder
	// perEntity is the first construct RunBatch does not evaluate.
	perEntity string
}

// Compile lowers prog's entry function — a behavior's on_tick(self), or
// a trigger rule's cond(self, amount) / act(self, amount) — and every
// user function it reaches onto one plan. nargs is the number of scalar
// arguments the host passes to every Run; a function declaring a
// different number could only ever fail its call, so it is rejected
// here. The returned Program is immutable and safe to Bind from many
// workers and many worlds. A *NotCompilable error names the first
// construct that does not lower.
func Compile(name string, prog *script.Program, entry string, nargs int) (*Program, error) {
	fn := prog.Fns[entry]
	if fn == nil {
		return nil, notCompilable(0, "no %q function", entry)
	}
	if len(fn.Params) != nargs {
		return nil, notCompilable(fn.Line(), "%s declares %d parameters, the host passes %d", entry, len(fn.Params), nargs)
	}
	var exp strings.Builder
	c := &compiler{
		fnScope:   fnScope{scopes: []map[string]varRef{{}}, exp: &exp, depth: 1, height: 1},
		prog:      prog,
		recursive: map[string]bool{},
		fns:       map[string]*fnInfo{},
		used:      map[string]bool{},
	}
	for _, f := range script.RecursiveFns(prog) {
		c.recursive[f] = true
	}
	// Parameters take scalar slots 0..nargs-1 in declaration order, which
	// is where Run copies its arguments.
	for _, p := range fn.Params {
		c.declare(p, false)
	}
	body, err := c.compileStmts(fn.Body.Stmts)
	if err != nil {
		return nil, err
	}
	if c.height > script.DefaultMaxDepth {
		return nil, notCompilable(c.deepLine, "call depth %d exceeds the interpreter's %d", c.height, script.DefaultMaxDepth)
	}
	// A behavior batches over a worker's roster chunk, a rule side over a
	// worker's share of one cascade round's matches of that rule; while
	// loops and user calls keep either on one Run per invocation.
	kind, unit, batched := "behavior", "entity", "one batched run per worker's roster chunk"
	if entry != EntryFn {
		kind, unit, batched = "rule", "match of a cascade round", "one batched run per cascade round over a worker's matches of the rule"
	}
	driver := "set-at-a-time: " + batched
	if c.perEntity != "" {
		driver = "per-entity: " + c.perEntity + " keeps one run per " + unit + ", chunked across workers"
	}
	header := fmt.Sprintf("%s %q: compiled plan for %s(%s)\n"+
		"  driver: %s\n"+
		"  frame: %d scalar slots, %d list slots, %d user functions\n",
		kind, name, entry, strings.Join(fn.Params, ", "), driver, len(c.slotName), len(c.listName), len(c.fns))
	return &Program{
		name:      name,
		nParams:   nargs,
		nScalars:  len(c.slotName),
		nLists:    len(c.listName),
		body:      body,
		explain:   header + exp.String() + c.fnExp.String(),
		perEntity: c.perEntity,
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

func (c *compiler) line(format string, a ...any) {
	c.exp.WriteString(strings.Repeat("  ", c.depth))
	fmt.Fprintf(c.exp, format, a...)
	c.exp.WriteByte('\n')
}

// block compiles a nested statement list in its own scope, one explain
// level deeper.
func (c *compiler) block(stmts []script.Stmt) ([]stmtNode, error) {
	c.push()
	c.depth++
	body, err := c.compileStmts(stmts)
	c.depth--
	c.pop()
	return body, err
}

// loopBody is block for the body of a loop, where break and continue
// are legal.
func (c *compiler) loopBody(stmts []script.Stmt) ([]stmtNode, error) {
	c.loops++
	body, err := c.block(stmts)
	c.loops--
	return body, err
}

// keepScalar records the first construct that keeps the program off
// RunBatch.
func (c *compiler) keepScalar(line int, construct string) {
	if c.perEntity == "" {
		c.perEntity = fmt.Sprintf("%s (line %d)", construct, line)
	}
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
			return &listStmt{op: op, line: st.Line()}, nil
		}
		v, err := c.compileExpr(st.E) // RHS resolves in the outer scope
		if err != nil {
			return nil, err
		}
		ref := c.declare(st.Name, false)
		c.line("let %s := %s", c.slotName[ref.slot], v.render())
		return &storeStmt{dest: ref.slot, v: v, line: st.Line()}, nil

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
			return &listStmt{op: op, line: st.Line()}, nil
		}
		if isNearby {
			return nil, notCompilable(st.Line(), "nearby result assigned to scalar variable %q", st.Name)
		}
		v, err := c.compileExpr(st.E)
		if err != nil {
			return nil, err
		}
		c.line("%s := %s", c.slotName[ref.slot], v.render())
		return &storeStmt{dest: ref.slot, v: v, line: st.Line()}, nil

	case *script.ExprStmt:
		if call, ok := nearbyCall(st.E); ok {
			op, err := c.compileNearby(call, "_", -1)
			if err != nil {
				return nil, err
			}
			c.line("discard %s", op.text)
			return &listStmt{op: op, line: st.Line()}, nil
		}
		v, err := c.compileExpr(st.E)
		if err != nil {
			return nil, err
		}
		c.line("%s", v.render())
		return &exprStmt{v: v, line: st.Line()}, nil

	case *script.Block:
		body, err := c.block(st.Stmts)
		if err != nil {
			return nil, err
		}
		return &blockStmt{body: body, line: st.Line()}, nil

	case *script.IfStmt:
		cond, err := c.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		c.line("if %s:", cond.render())
		then, err := c.block(st.Then.Stmts)
		if err != nil {
			return nil, err
		}
		var els []stmtNode
		if st.Else != nil {
			c.line("else:")
			if els, err = c.block(st.Else.Stmts); err != nil {
				return nil, err
			}
		}
		return &ifStmt{cond: cond, condLine: st.Cond.Line(), then: then, els: els, line: st.Line()}, nil

	case *script.WhileStmt:
		cond, err := c.compileExpr(st.Cond)
		if err != nil {
			return nil, err
		}
		c.keepScalar(st.Line(), "while loop")
		c.line("while %s:  -- fuel-bounded", cond.render())
		body, err := c.loopBody(st.Body.Stmts)
		if err != nil {
			return nil, err
		}
		return &whileStmt{cond: cond, condLine: st.Cond.Line(), body: body, line: st.Line()}, nil

	case *script.ForInStmt:
		f := &forStmt{line: st.Line()}
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
			f.seqLine = seq.Line()
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
			f.seqOp = op
			f.seqSlot = op.dest
			seqText = op.text
		}
		c.push()
		loopVar := c.declare(st.Var, false)
		f.varSlot = loopVar.slot
		c.line("for %s in %s:  -- scan neighbor list", c.slotName[loopVar.slot], seqText)
		c.ranging = append(c.ranging, f.seqSlot)
		body, err := c.loopBody(st.Body.Stmts)
		c.ranging = c.ranging[:len(c.ranging)-1]
		c.pop()
		if err != nil {
			return nil, err
		}
		f.body = body
		return f, nil

	case *script.ReturnStmt:
		ret := &returnStmt{line: st.Line()}
		if st.E != nil {
			v, err := c.compileExpr(st.E)
			if err != nil {
				return nil, err
			}
			ret.v = v
			c.line("return %s", v.render())
		} else {
			c.line("return")
		}
		return ret, nil

	case *script.BreakStmt:
		return c.jump(ctrlBreak, "break", st.Line())
	case *script.ContinueStmt:
		return c.jump(ctrlContinue, "continue", st.Line())
	}
	return nil, notCompilable(s.Line(), "statement %T", s)
}

// jump compiles break / continue, which only lower inside a loop of the
// same function body.
func (c *compiler) jump(k ctrl, word string, line int) (stmtNode, error) {
	if c.loops == 0 {
		return nil, notCompilable(line, "%s outside a loop", word)
	}
	c.line("%s", word)
	return &jumpStmt{c: k, line: line}, nil
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
	return &nearbyOp{
		dest:   dest,
		fresh:  slices.Contains(c.ranging, dest),
		idArg:  idArg,
		radArg: radArg,
		line:   call.Line(),
		text:   fmt.Sprintf("nearby(%s, %s)  -- spatial-index probe, reads (id.x, id.y)", idArg.render(), radArg.render()),
	}, nil
}

// ---------------------------------------------------------------------------
// expressions

func (c *compiler) compileExpr(e script.Expr) (valPlan, error) {
	switch ex := e.(type) {
	case *script.IntLit:
		return &constVal{v: entity.Int(ex.V), line: ex.Line()}, nil
	case *script.FloatLit:
		return &constVal{v: entity.Float(ex.V), line: ex.Line()}, nil
	case *script.StrLit:
		return &constVal{v: entity.Str(ex.V), line: ex.Line()}, nil
	case *script.BoolLit:
		return &constVal{v: entity.Bool(ex.V), line: ex.Line()}, nil
	case *script.NullLit:
		return &constVal{v: entity.Null(), line: ex.Line()}, nil
	case *script.Ident:
		ref, ok := c.lookup(ex.Name)
		if !ok {
			return nil, notCompilable(ex.Line(), "reference to undefined variable %q", ex.Name)
		}
		if ref.list {
			return nil, notCompilable(ex.Line(), "list variable %q used as a scalar", ex.Name)
		}
		return &slotVal{slot: ref.slot, name: c.slotName[ref.slot], line: ex.Line()}, nil
	case *script.UnExpr:
		sub, err := c.compileExpr(ex.E)
		if err != nil {
			return nil, err
		}
		return &unVal{neg: ex.Neg, e: sub, line: ex.Line()}, nil
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
			return &logicalVal{or: ex.Op == script.OpOr, l: l, r: r, line: ex.Line(), lLine: ex.L.Line(), rLine: ex.R.Line()}, nil
		}
		op, ok := binOps[ex.Op]
		if !ok {
			return nil, notCompilable(ex.Line(), "operator %v", ex.Op)
		}
		return &binVal{op: op, gsl: ex.Op, l: l, r: r, line: ex.Line()}, nil
	case *script.CallExpr:
		return c.compileCall(ex)
	}
	return nil, notCompilable(e.Line(), "expression %T", e)
}

var binOps = map[script.BinOp]query.BinOp{
	script.OpAdd: query.OpAdd,
	script.OpSub: query.OpSub,
	script.OpMul: query.OpMul,
	script.OpDiv: query.OpDiv,
	script.OpMod: query.OpMod,
	script.OpEq:  query.OpEq,
	script.OpNe:  query.OpNe,
	script.OpLt:  query.OpLt,
	script.OpLe:  query.OpLe,
	script.OpGt:  query.OpGt,
	script.OpGe:  query.OpGe,
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
	"spawn":       {bSpawn, 3, 3},
	"despawn":     {bDespawn, 1, 1},
	"len":         {bLen, 1, 1},
	"abs":         {bAbs, 1, 1},
	"min":         {bMin, 2, 2},
	"max":         {bMax, 2, 2},
	"sqrt":        {bSqrt, 1, 1},
	"floor":       {bFloor, 1, 1},
}

func (c *compiler) compileArgs(args []script.Expr) ([]valPlan, error) {
	out := make([]valPlan, len(args))
	for i, a := range args {
		v, err := c.compileExpr(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// compileCall resolves a call the way Interp.call does — builtins shadow
// user functions of the same name — and lowers it.
func (c *compiler) compileCall(ex *script.CallExpr) (valPlan, error) {
	if ex.Name == "nearby" {
		return nil, notCompilable(ex.Line(), "nearby result used as a scalar value")
	}
	if spec, ok := builtinSpecs[ex.Name]; ok {
		if len(ex.Args) < spec.min || len(ex.Args) > spec.max {
			return nil, notCompilable(ex.Line(), "wrong argument count for %q", ex.Name)
		}
		// len over a list variable is a frame read.
		if spec.kind == bLen {
			if id, ok := ex.Args[0].(*script.Ident); ok {
				if ref, found := c.lookup(id.Name); found && ref.list {
					return &lenListVal{src: ref.slot, name: id.Name, line: ex.Line(), arg: id.Line()}, nil
				}
			}
		}
		args, err := c.compileArgs(ex.Args)
		if err != nil {
			return nil, err
		}
		return &callVal{kind: spec.kind, name: ex.Name, args: args, line: ex.Line()}, nil
	}
	if ex.Name == "list" || ex.Name == "push" {
		return nil, notCompilable(ex.Line(), "builtin %q (the only list values are nearby results)", ex.Name)
	}
	fn := c.prog.Fns[ex.Name]
	if fn == nil {
		return nil, notCompilable(ex.Line(), "unknown function %q", ex.Name)
	}
	if c.recursive[ex.Name] {
		return nil, notCompilable(ex.Line(), "call to %q, which recurses", ex.Name)
	}
	if len(ex.Args) != len(fn.Params) {
		return nil, notCompilable(ex.Line(), "%s expects %d args, got %d", ex.Name, len(fn.Params), len(ex.Args))
	}
	args, err := c.compileArgs(ex.Args)
	if err != nil {
		return nil, err
	}
	c.keepScalar(ex.Line(), fmt.Sprintf("call to user function %q", ex.Name))
	tmps := make([]int, len(args))
	for i := range tmps {
		tmps[i] = c.newTemp()
	}
	fi, err := c.compileFn(ex.Name, fn)
	if err != nil {
		return nil, err
	}
	if h := fi.height + 1; h > c.height {
		c.height, c.deepLine = h, ex.Line()
	}
	return &userCallVal{fn: fi.fn, args: args, tmps: tmps, line: ex.Line()}, nil
}

// compileFn compiles a user function once, in a scope holding only its
// parameters (Interp.call's fresh scope), into its own frame slots.
func (c *compiler) compileFn(name string, fn *script.FnDecl) (*fnInfo, error) {
	if fi := c.fns[name]; fi != nil {
		return fi, nil
	}
	saved := c.fnScope
	var exp strings.Builder
	c.fnScope = fnScope{scopes: []map[string]varRef{{}}, exp: &exp, depth: 2, height: 1}
	fp := &fnPlan{name: name}
	for _, p := range fn.Params {
		fp.params = append(fp.params, c.declare(p, false).slot)
	}
	body, err := c.compileStmts(fn.Body.Stmts)
	height := c.height
	c.fnScope = saved
	if err != nil {
		return nil, err
	}
	fp.body = body
	fi := &fnInfo{fn: fp, height: height}
	c.fns[name] = fi
	fmt.Fprintf(&c.fnExp, "  fn %s(%s):  -- compiled once, called in place\n%s", name, strings.Join(fn.Params, ", "), exp.String())
	return fi, nil
}
