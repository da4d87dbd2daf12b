package gslplan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/query"
	"gamedb/internal/script"
)

// ErrFuel is the interpreter's fuel sentinel: a run that burns past its
// budget stops at the node that crossed it and reports
// "<ErrFuel> (line N)", exactly like script.Interp.
var ErrFuel = script.ErrFuel

// ctrl is the non-error control-flow signal a statement can raise.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// runner is the mutable execution state of one bound plan: a scalar
// frame addressed by compile-time slots, a list frame for nearby
// results, and the interpreter-equivalent fuel tally.
type runner struct {
	env     Env
	scalars []entity.Value
	lists   [][]entity.ID
	fuel    int64
	fuelCap int64
	ret     entity.Value // the value of the last return statement executed
}

// burn charges one AST node, as the interpreter does before evaluating
// it, and stops the run at the first node past the cap.
func (r *runner) burn(line int) error {
	r.fuel++
	if r.fuel > r.fuelCap {
		return fuelError(line)
	}
	return nil
}

func fuelError(line int) error { return fmt.Errorf("%w (line %d)", ErrFuel, line) }

// Program is an immutable compiled entry function — a behavior's
// on_tick or one side of a trigger rule — together with every user
// function it calls. It is shared across workers (and across the worlds
// that load one content pack); each worker calls Bind with its own Env
// to get a runnable Plan.
type Program struct {
	name     string
	nParams  int // arguments occupy scalar slots 0..nParams-1
	nScalars int
	nLists   int
	body     []stmtNode
	explain  string
	// perEntity names the first construct RunBatch does not evaluate
	// ("" when the whole program runs set-at-a-time).
	perEntity string
}

// Name returns the behavior or rule name the program was compiled from.
func (p *Program) Name() string { return p.name }

// Explain renders the compiled operator plan as indented text — the
// -plan debugging aid for content authors.
func (p *Program) Explain() string { return p.explain }

// Bind attaches the program to a worker's Env. When the Env is also a
// BatchEnv, the plan can RunBatch too. The returned Plan owns its frames
// and is not safe for concurrent use.
func (p *Program) Bind(env Env) *Plan {
	be, _ := env.(BatchEnv)
	return &Plan{
		prog: p,
		r: runner{
			env:     env,
			scalars: make([]entity.Value, p.nScalars),
			lists:   make([][]entity.ID, p.nLists),
		},
		b: batch{env: be},
	}
}

// Plan is a Program bound to one worker's Env: the scalar frame Run uses
// and the per-lane state RunBatch uses.
type Plan struct {
	prog *Program
	r    runner
	b    batch
}

// Run executes the plan for one invocation and returns the value its
// return statement produced (null when it returned bare or fell off the
// end) with the fuel burned. The run is the interpreter's run — the one
// script.Interp.Call would make over the same host with the same budget
// (fuelCap ≤ 0 selects script.DefaultFuel, as it does there): same
// value, same effects, read-set and rand draws in the same order, same
// fuel, and the same outcome. A run that exhausts its budget stops at
// the node that crossed it and returns an error wrapping ErrFuel with
// that node's line and fuel fuelCap+1; a GSL runtime error is a
// *script.Error with the interpreter's line and message; an Env error is
// returned as the Env produced it. On any error the caller discards the
// invocation's effects.
func (p *Plan) Run(fuelCap int64, args ...entity.Value) (entity.Value, int64, error) {
	r := &p.r
	if len(args) != p.prog.nParams {
		return entity.Null(), 0, fmt.Errorf("gslplan: %s takes %d arguments, got %d", p.prog.name, p.prog.nParams, len(args))
	}
	if fuelCap <= 0 {
		fuelCap = script.DefaultFuel
	}
	r.fuel, r.fuelCap = 0, fuelCap
	copy(r.scalars, args)
	c, err := execList(r, p.prog.body)
	if err != nil {
		return entity.Null(), r.fuel, err
	}
	if c == ctrlReturn {
		return r.ret, r.fuel, nil
	}
	return entity.Null(), r.fuel, nil
}

// ---------------------------------------------------------------------------
// Expression nodes

// valPlan evaluates one expression node in the interpreter's order:
// burn the node, evaluate the operands left to right, then apply it.
type valPlan interface {
	eval(r *runner) (entity.Value, error)
	// evalB evaluates the node for every lane of sel, its cost already
	// burned (batch.go).
	evalB(b *batch, sel []int32) vec
	cost() int64
	render() string
}

// kindOf names a value's kind the way GSL error messages do.
func kindOf(v entity.Value) script.Kind { return script.FromEntity(v).Kind() }

func langError(line int, format string, a ...any) error {
	return &script.Error{Line: line, Msg: fmt.Sprintf(format, a...)}
}

// asBool is the interpreter's evalBool check on an evaluated operand;
// line is the operand expression's.
func asBool(v entity.Value, line int) (bool, error) {
	b, ok := v.AsBool()
	if !ok {
		return false, langError(line, "condition is %s, want bool", kindOf(v))
	}
	return b, nil
}

type constVal struct {
	v    entity.Value
	line int
}

func (c *constVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(c.line); err != nil {
		return entity.Null(), err
	}
	return c.v, nil
}

func (c *constVal) render() string { return c.v.String() }

// slotVal reads a variable's scalar slot.
type slotVal struct {
	slot int
	name string
	line int
}

func (s *slotVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(s.line); err != nil {
		return entity.Null(), err
	}
	return r.scalars[s.slot], nil
}

func (s *slotVal) render() string { return s.name }

type unVal struct {
	neg  bool // numeric negation; otherwise logical not
	e    valPlan
	line int
}

func (u *unVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(u.line); err != nil {
		return entity.Null(), err
	}
	v, err := u.e.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	if u.neg {
		if i, ok := v.AsInt(); ok {
			return entity.Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return entity.Float(-f), nil
		}
		return entity.Null(), langError(u.line, "cannot negate %s", kindOf(v))
	}
	b, ok := v.AsBool()
	if !ok {
		return entity.Null(), langError(u.line, "cannot logical-not %s", kindOf(v))
	}
	return entity.Bool(!b), nil
}

func (u *unVal) render() string {
	if u.neg {
		return "(-" + u.e.render() + ")"
	}
	return "(!" + u.e.render() + ")"
}

// binVal is an arithmetic or comparison operator, applied by the query
// layer's operator semantics (internal/query/parity_test.go pins them to
// the interpreter's).
type binVal struct {
	op   query.BinOp
	gsl  script.BinOp
	l, r valPlan
	line int
}

func (b *binVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(b.line); err != nil {
		return entity.Null(), err
	}
	lv, err := b.l.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	rv, err := b.r.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	v, err := query.Apply(b.op, lv, rv)
	if err != nil {
		return entity.Null(), b.fail(lv, rv)
	}
	return v, nil
}

// fail words a failed operator the way the interpreter does.
func (b *binVal) fail(l, r entity.Value) error {
	_, lInt := l.AsInt()
	if ri, rInt := r.AsInt(); lInt && rInt && ri == 0 {
		switch b.gsl {
		case script.OpDiv:
			return langError(b.line, "integer division by zero")
		case script.OpMod:
			return langError(b.line, "modulo by zero")
		}
	}
	return langError(b.line, "invalid operands %s %s %s", kindOf(l), b.gsl, kindOf(r))
}

func (b *binVal) render() string {
	return "(" + b.l.render() + " " + b.gsl.String() + " " + b.r.render() + ")"
}

// logicalVal is a short-circuit and/or: the right operand is neither
// evaluated nor burned when the left one decides.
type logicalVal struct {
	or           bool
	l, r         valPlan
	line         int
	lLine, rLine int
}

func (v *logicalVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(v.line); err != nil {
		return entity.Null(), err
	}
	lv, err := v.l.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	lb, err := asBool(lv, v.lLine)
	if err != nil {
		return entity.Null(), err
	}
	if v.or == lb { // and:false / or:true short-circuits
		return entity.Bool(lb), nil
	}
	rv, err := v.r.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	rb, err := asBool(rv, v.rLine)
	if err != nil {
		return entity.Null(), err
	}
	return entity.Bool(rb), nil
}

func (v *logicalVal) render() string {
	op := " && "
	if v.or {
		op = " || "
	}
	return "(" + v.l.render() + op + v.r.render() + ")"
}

// callVal calls a builtin: the call node burns, the arguments evaluate
// in order, and the builtin body burns nothing.
type callVal struct {
	kind bkind
	name string
	args []valPlan
	line int
}

func (c *callVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(c.line); err != nil {
		return entity.Null(), err
	}
	var av [4]entity.Value
	for i, a := range c.args {
		v, err := a.eval(r)
		if err != nil {
			return entity.Null(), err
		}
		av[i] = v
	}
	return dispatch(r.env, c.kind, c.name, av[:len(c.args)])
}

func (c *callVal) render() string { return c.name + "(" + renderArgs(c.args) + ")" }

func renderArgs(args []valPlan) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.render()
	}
	return strings.Join(parts, ", ")
}

// lenListVal is len(list-var): the call node plus its ident argument.
type lenListVal struct {
	src       int
	name      string
	line, arg int
}

func (l *lenListVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(l.line); err != nil {
		return entity.Null(), err
	}
	if err := r.burn(l.arg); err != nil {
		return entity.Null(), err
	}
	return entity.Int(int64(len(r.lists[l.src]))), nil
}

func (l *lenListVal) render() string { return "len(" + l.name + ")" }

// fnPlan is a user function compiled once into its own frame slots. A
// call graph without cycles never holds two activations of one function,
// so every call site can share the function's slots.
type fnPlan struct {
	name   string
	params []int
	body   []stmtNode
}

// userCallVal calls a user function the way Interp.call does: the call
// node burns, the arguments evaluate in order (into the call site's own
// temps, since an argument may itself call the same function), the
// callee's parameters bind, and its body runs; a return statement's
// value is the call's value, falling off the end yields null.
type userCallVal struct {
	fn   *fnPlan
	args []valPlan
	tmps []int
	line int
}

func (u *userCallVal) eval(r *runner) (entity.Value, error) {
	if err := r.burn(u.line); err != nil {
		return entity.Null(), err
	}
	for i, a := range u.args {
		v, err := a.eval(r)
		if err != nil {
			return entity.Null(), err
		}
		r.scalars[u.tmps[i]] = v
	}
	for i, p := range u.fn.params {
		r.scalars[p] = r.scalars[u.tmps[i]]
	}
	c, err := execList(r, u.fn.body)
	if err != nil {
		return entity.Null(), err
	}
	if c == ctrlReturn {
		return r.ret, nil
	}
	return entity.Null(), nil
}

func (u *userCallVal) render() string { return u.fn.name + "(" + renderArgs(u.args) + ")" }

// nearbyOp runs the spatial-index probe of a nearby(...) call and stores
// the resulting id list into a list slot, refilling the slot's own
// backing array: slots are only ever assigned by nearby ops, so no other
// slot aliases it. The one reader that can outlive a refill is an
// enclosing for-in ranging over this very slot; the compiler marks such
// ops fresh and they get a new array instead.
type nearbyOp struct {
	dest   int
	fresh  bool
	idArg  valPlan
	radArg valPlan
	line   int
	text   string
}

func (o *nearbyOp) run(r *runner) error {
	if err := r.burn(o.line); err != nil { // the call node
		return err
	}
	idv, err := o.idArg.eval(r)
	if err != nil {
		return err
	}
	radv, err := o.radArg.eval(r)
	if err != nil {
		return err
	}
	id, err := asID(idv)
	if err != nil {
		return err
	}
	rad, ok := radv.AsFloat()
	if !ok {
		return fmt.Errorf("gslplan: nearby radius must be a number, got %s", kindOf(radv))
	}
	var dst []entity.ID
	if !o.fresh {
		dst = r.lists[o.dest][:0]
	}
	r.lists[o.dest] = r.env.AppendNearby(dst, id, rad)
	return nil
}

// bkind identifies a compilable builtin.
type bkind uint8

const (
	bGet bkind = iota
	bDist
	bPosX
	bPosY
	bTick
	bRand
	bSet
	bAdd
	bEmit
	bMoveToward
	bSpawn
	bDespawn
	bLen // len over a scalar (string) argument
	bAbs
	bMin
	bMax
	bSqrt
	bFloor
)

func asID(v entity.Value) (entity.ID, error) {
	i, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("gslplan: entity id must be int, got %s", kindOf(v))
	}
	return entity.ID(i), nil
}

func asCol(v entity.Value) (string, error) {
	col, ok := v.AsStr()
	if !ok {
		return "", fmt.Errorf("gslplan: column name must be string, got %s", kindOf(v))
	}
	return col, nil
}

// dispatch runs a builtin body: the host's through the Env, with the
// argument checks of the world's builtins, and the stdlib's with the
// interpreter's own results and messages. Counts are validated at
// compile time.
func dispatch(env Env, kind bkind, name string, args []entity.Value) (entity.Value, error) {
	switch kind {
	case bGet:
		id, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		col, err := asCol(args[1])
		if err != nil {
			return entity.Null(), err
		}
		return env.Get(id, col)
	case bDist:
		a, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		b, err := asID(args[1])
		if err != nil {
			return entity.Null(), err
		}
		return entity.Float(env.Dist(a, b)), nil
	case bPosX, bPosY:
		id, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		var f float64
		if kind == bPosX {
			f, err = env.PosX(id)
		} else {
			f, err = env.PosY(id)
		}
		if err != nil {
			return entity.Null(), err
		}
		return entity.Float(f), nil
	case bTick:
		return entity.Int(env.Tick()), nil
	case bRand:
		return entity.Float(env.RandFloat()), nil
	case bSet, bAdd:
		id, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		col, err := asCol(args[1])
		if err != nil {
			return entity.Null(), err
		}
		if kind == bSet {
			err = env.EmitSet(id, col, args[2])
		} else {
			err = env.EmitAdd(id, col, args[2])
		}
		return entity.Null(), err
	case bEmit:
		name, ok := args[0].AsStr()
		if !ok {
			return entity.Null(), fmt.Errorf("gslplan: event name must be string, got %s", kindOf(args[0]))
		}
		id, err := asID(args[1])
		if err != nil {
			return entity.Null(), err
		}
		amount := entity.Null()
		if len(args) == 3 {
			amount = args[2]
		}
		env.EmitPost(name, id, amount)
		return entity.Null(), nil
	case bMoveToward:
		id, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		tx, okX := args[1].AsFloat()
		ty, okY := args[2].AsFloat()
		step, okS := args[3].AsFloat()
		if !okX || !okY || !okS {
			return entity.Null(), errors.New("gslplan: move_toward wants numbers")
		}
		return entity.Null(), env.MoveToward(id, tx, ty, step)
	case bSpawn:
		arch, ok := args[0].AsStr()
		if !ok {
			return entity.Null(), fmt.Errorf("gslplan: spawn archetype must be string, got %s", kindOf(args[0]))
		}
		x, okX := args[1].AsFloat()
		y, okY := args[2].AsFloat()
		if !okX || !okY {
			return entity.Null(), errors.New("gslplan: spawn position must be numeric")
		}
		id, err := env.EmitSpawn(arch, x, y)
		if err != nil {
			return entity.Null(), err
		}
		return entity.Int(int64(id)), nil
	case bDespawn:
		id, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		return entity.Null(), env.EmitDespawn(id)
	case bLen:
		if s, ok := args[0].AsStr(); ok {
			return entity.Int(int64(len(s))), nil
		}
		return entity.Null(), fmt.Errorf("script: len: want list or string, got %s", kindOf(args[0]))
	case bAbs:
		if i, ok := args[0].AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return entity.Int(i), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return entity.Null(), fmt.Errorf("script: abs: want number, got %s", kindOf(args[0]))
		}
		return entity.Float(math.Abs(f)), nil
	case bMin, bMax:
		fa, okA := args[0].AsFloat()
		fb, okB := args[1].AsFloat()
		if !okA || !okB {
			return entity.Null(), fmt.Errorf("script: %s: want numbers", name)
		}
		ia, iaOK := args[0].AsInt()
		ib, ibOK := args[1].AsInt()
		if iaOK && ibOK {
			if kind == bMin {
				if ia < ib {
					return entity.Int(ia), nil
				}
				return entity.Int(ib), nil
			}
			if ia > ib {
				return entity.Int(ia), nil
			}
			return entity.Int(ib), nil
		}
		if kind == bMin {
			return entity.Float(math.Min(fa, fb)), nil
		}
		return entity.Float(math.Max(fa, fb)), nil
	case bSqrt, bFloor:
		f, ok := args[0].AsFloat()
		if !ok {
			return entity.Null(), fmt.Errorf("script: %s: want number, got %s", name, kindOf(args[0]))
		}
		if kind == bSqrt {
			return entity.Float(math.Sqrt(f)), nil
		}
		return entity.Float(math.Floor(f)), nil
	}
	return entity.Null(), fmt.Errorf("gslplan: unknown builtin kind %d", kind)
}

// ---------------------------------------------------------------------------
// Statement nodes. Each burns its own node first, as Interp.exec does;
// blocks that are a branch or a loop body burn nothing themselves.

type stmtNode interface {
	exec(r *runner) (ctrl, error)
	// execB executes the statement for every lane of sel (batch.go).
	execB(b *batch, sel []int32)
}

func execList(r *runner, body []stmtNode) (ctrl, error) {
	for _, st := range body {
		if c, err := st.exec(r); err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

// storeStmt is a let or assignment of a scalar expression.
type storeStmt struct {
	dest int
	v    valPlan
	line int
}

func (s *storeStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	v, err := s.v.eval(r)
	if err != nil {
		return ctrlNone, err
	}
	r.scalars[s.dest] = v
	return ctrlNone, nil
}

// listStmt is a let, an assignment or a bare statement whose right side
// is a nearby(...) probe landing in a list slot.
type listStmt struct {
	op   *nearbyOp
	line int
}

func (s *listStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	return ctrlNone, s.op.run(r)
}

// exprStmt evaluates and discards.
type exprStmt struct {
	v    valPlan
	line int
}

func (s *exprStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	_, err := s.v.eval(r)
	return ctrlNone, err
}

type ifStmt struct {
	cond     valPlan
	condLine int
	then     []stmtNode
	els      []stmtNode // nil when absent
	line     int
}

func (s *ifStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	v, err := s.cond.eval(r)
	if err != nil {
		return ctrlNone, err
	}
	b, err := asBool(v, s.condLine)
	if err != nil {
		return ctrlNone, err
	}
	if b {
		return execList(r, s.then)
	}
	return execList(r, s.els)
}

type blockStmt struct {
	body []stmtNode
	line int
}

func (s *blockStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	return execList(r, s.body)
}

// forStmt iterates a list slot, running the body once per id with the
// loop variable bound into its scalar slot. The sequence is either a
// named list (seqLine is the ident's burn) or an inline nearby probe
// (seqOp). Matching the interpreter, each iteration the body completes
// normally burns one trailing unit; break, continue and return skip it.
type forStmt struct {
	varSlot int
	seqOp   *nearbyOp
	seqSlot int
	seqLine int
	body    []stmtNode
	line    int
}

func (s *forStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	if s.seqOp != nil {
		if err := s.seqOp.run(r); err != nil {
			return ctrlNone, err
		}
	} else if err := r.burn(s.seqLine); err != nil {
		return ctrlNone, err
	}
	for _, id := range r.lists[s.seqSlot] {
		r.scalars[s.varSlot] = entity.Int(int64(id))
		c, err := execList(r, s.body)
		if err != nil {
			return ctrlNone, err
		}
		switch c {
		case ctrlReturn:
			return ctrlReturn, nil
		case ctrlBreak:
			return ctrlNone, nil
		case ctrlContinue:
			continue
		}
		if err := r.burn(s.line); err != nil {
			return ctrlNone, err
		}
	}
	return ctrlNone, nil
}

// whileStmt burns its node once; every iteration then burns only what
// its condition and body evaluate, so fuel rises by at least the
// condition's node each time round and a loop always ends.
type whileStmt struct {
	cond     valPlan
	condLine int
	body     []stmtNode
	line     int
}

func (s *whileStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	for {
		v, err := s.cond.eval(r)
		if err != nil {
			return ctrlNone, err
		}
		b, err := asBool(v, s.condLine)
		if err != nil || !b {
			return ctrlNone, err
		}
		c, err := execList(r, s.body)
		if err != nil {
			return ctrlNone, err
		}
		switch c {
		case ctrlReturn:
			return ctrlReturn, nil
		case ctrlBreak:
			return ctrlNone, nil
		}
	}
}

type returnStmt struct {
	v    valPlan // nil for a bare return
	line int
}

func (s *returnStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	r.ret = entity.Null()
	if s.v != nil {
		v, err := s.v.eval(r)
		if err != nil {
			return ctrlNone, err
		}
		r.ret = v
	}
	return ctrlReturn, nil
}

// jumpStmt is break or continue.
type jumpStmt struct {
	c    ctrl
	line int
}

func (s *jumpStmt) exec(r *runner) (ctrl, error) {
	if err := r.burn(s.line); err != nil {
		return ctrlNone, err
	}
	return s.c, nil
}
