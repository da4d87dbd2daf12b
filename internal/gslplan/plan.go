package gslplan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/query"
)

// ErrFuel reports that a compiled run burned more fuel than the budget
// allows; the caller rolls back and lets the interpreter reproduce the
// exact exhaustion point and error.
var ErrFuel = errors.New("gslplan: fuel budget exhausted")

// ctrl is the non-error control-flow signal a statement can raise.
// The compiled subset has no break/continue, so return is the only one.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlReturn
)

// runner is the mutable execution state of one bound plan: a scalar
// frame addressed by compile-time slots (evaluated as a query.Tuple by
// the lowered pure fragments), a list frame for nearby results, and
// the interpreter-equivalent fuel tally.
type runner struct {
	env     Env
	scalars []entity.Value
	lists   [][]entity.ID
	fuel    int64
	fuelCap int64
	ret     entity.Value // the value of the return statement that ended the run
}

// Program is an immutable compiled entry function — a behavior's
// on_tick or one side of a trigger rule. It is shared across workers
// (and across the worlds that load one content pack); each worker calls
// Bind with its own Env to get a runnable Plan.
type Program struct {
	name     string
	nParams  int // arguments occupy scalar slots 0..nParams-1
	nScalars int
	nLists   int
	body     []stmtNode
	explain  string
}

// Name returns the behavior or rule name the program was compiled from.
func (p *Program) Name() string { return p.name }

// Explain renders the compiled operator plan as indented text — the
// -plan debugging aid for content authors.
func (p *Program) Explain() string { return p.explain }

// Bind attaches the program to a worker's Env. The returned Plan owns
// its frames and is not safe for concurrent use.
func (p *Program) Bind(env Env) *Plan {
	return &Plan{
		prog: p,
		r: runner{
			env:     env,
			scalars: make([]entity.Value, p.nScalars),
			lists:   make([][]entity.ID, p.nLists),
		},
	}
}

// Plan is a Program bound to one worker's Env.
type Plan struct {
	prog *Program
	r    runner
}

// Run executes the plan for one invocation and returns the value its
// return statement produced (null when it returned bare or fell off
// the end) with the fuel burned. A nil error guarantees the invocation
// behaved exactly like the interpreter would have — same value, same
// effects, same read-set, same rand draws, and fuel ≤ fuelCap with the
// identical total. On any error the caller must discard the invocation
// (rollback) and re-run it on the interpreter, whose outcome — value,
// error, or fuel exhaustion — is authoritative.
func (p *Plan) Run(fuelCap int64, args ...entity.Value) (entity.Value, int64, error) {
	r := &p.r
	if len(args) != p.prog.nParams {
		return entity.Null(), 0, fmt.Errorf("gslplan: %s takes %d arguments, got %d", p.prog.name, p.prog.nParams, len(args))
	}
	r.fuel, r.fuelCap, r.ret = 0, fuelCap, entity.Null()
	copy(r.scalars, args)
	if _, err := execList(r, p.prog.body); err != nil {
		return entity.Null(), r.fuel, err
	}
	return r.ret, r.fuel, nil
}

// ---------------------------------------------------------------------------
// Expression fragments

// valPlan evaluates to a scalar value, self-accounting its exact
// interpreter burn count.
type valPlan interface {
	eval(r *runner) (entity.Value, error)
	render() string
}

// pureVal is a side-effect-free fragment lowered onto a query.Expr
// over the scalar slot frame. ops materialize any call results the
// fragment references into temp slots (each op accounts its own
// burns); cost is the exact burn count of the residual pure nodes.
type pureVal struct {
	ops  []opNode
	q    query.Expr
	cost int64
}

func (p pureVal) eval(r *runner) (entity.Value, error) {
	for _, op := range p.ops {
		if err := op.run(r); err != nil {
			return entity.Null(), err
		}
	}
	r.fuel += p.cost
	return p.q.Eval(query.Tuple(r.scalars))
}

func (p pureVal) render() string {
	s := p.q.String()
	if len(p.ops) == 0 {
		return s
	}
	parts := make([]string, 0, len(p.ops))
	for _, op := range p.ops {
		parts = append(parts, op.str())
	}
	return "{" + strings.Join(parts, "; ") + "} " + s
}

// logicalVal is a dynamic and/or node. It stays out of the pure
// lowering on purpose: folding short-circuit into a static-cost
// fragment would overcount fuel when the right side is skipped.
type logicalVal struct {
	or   bool
	l, r valPlan
}

func (v logicalVal) eval(r *runner) (entity.Value, error) {
	r.fuel++ // the and/or node itself
	lv, err := v.l.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	lb, ok := lv.AsBool()
	if !ok {
		return entity.Null(), fmt.Errorf("gslplan: condition is %s, want bool", lv.Kind())
	}
	if v.or == lb { // and:false / or:true short-circuits
		return entity.Bool(lb), nil
	}
	rv, err := v.r.eval(r)
	if err != nil {
		return entity.Null(), err
	}
	rb, ok := rv.AsBool()
	if !ok {
		return entity.Null(), fmt.Errorf("gslplan: condition is %s, want bool", rv.Kind())
	}
	return entity.Bool(rb), nil
}

func (v logicalVal) render() string {
	op := " && "
	if v.or {
		op = " || "
	}
	return "(" + v.l.render() + op + v.r.render() + ")"
}

// ---------------------------------------------------------------------------
// Operator nodes (the stateful part of a fragment)

type opNode interface {
	run(r *runner) error
	str() string
}

// hoistOp materializes a non-pure sub-expression (an and/or chain
// nested inside arithmetic) into a temp scalar slot so the enclosing
// pure fragment can reference it as a column.
type hoistOp struct {
	dest int
	v    valPlan
	text string
}

func (o *hoistOp) run(r *runner) error {
	v, err := o.v.eval(r)
	if err != nil {
		return err
	}
	r.scalars[o.dest] = v
	return nil
}

func (o *hoistOp) str() string { return o.text }

// nearbyOp runs the spatial-index probe for a nearby(...) call and
// stores the resulting id list into a list slot, refilling the slot's
// own backing array: slots are only ever assigned by nearby ops, so no
// other slot aliases it. The one reader that can outlive a refill is an
// enclosing for-in ranging over this very slot; the compiler marks such
// ops fresh and they get a new array instead.
type nearbyOp struct {
	dest   int
	fresh  bool
	idArg  valPlan
	radArg valPlan
	text   string
}

func (o *nearbyOp) run(r *runner) error {
	r.fuel++ // the call node
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
		return fmt.Errorf("gslplan: nearby radius must be a number, got %s", radv.Kind())
	}
	var dst []entity.ID
	if !o.fresh {
		dst = r.lists[o.dest][:0]
	}
	r.lists[o.dest] = r.env.AppendNearby(dst, id, rad)
	return nil
}

func (o *nearbyOp) str() string { return o.text }

// lenListOp implements len(list-var): the call node plus its ident
// argument, no Env interaction.
type lenListOp struct {
	dest int
	src  int
	text string
}

func (o *lenListOp) run(r *runner) error {
	r.fuel += 2 // call node + ident argument
	r.scalars[o.dest] = entity.Int(int64(len(r.lists[o.src])))
	return nil
}

func (o *lenListOp) str() string { return o.text }

// callOp evaluates a builtin call against the Env and stores the
// result into a temp scalar slot.
type callOp struct {
	dest int
	kind bkind
	args []valPlan
	text string
}

func (o *callOp) run(r *runner) error {
	r.fuel++ // the call node; builtin bodies burn nothing
	var av [4]entity.Value
	for i, a := range o.args {
		v, err := a.eval(r)
		if err != nil {
			return err
		}
		av[i] = v
	}
	v, err := dispatch(r.env, o.kind, av[:len(o.args)])
	if err != nil {
		return err
	}
	r.scalars[o.dest] = v
	return nil
}

func (o *callOp) str() string { return o.text }

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
		return 0, fmt.Errorf("gslplan: entity id must be int, got %s", v.Kind())
	}
	return entity.ID(i), nil
}

// dispatch mirrors the effect-mode world builtins and the script
// stdlib exactly (argument coercion, error conditions, numeric
// behavior); counts are validated at compile time.
func dispatch(env Env, kind bkind, args []entity.Value) (entity.Value, error) {
	switch kind {
	case bGet:
		id, err := asID(args[0])
		if err != nil {
			return entity.Null(), err
		}
		col, ok := args[1].AsStr()
		if !ok {
			return entity.Null(), fmt.Errorf("gslplan: column name must be string, got %s", args[1].Kind())
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
		col, ok := args[1].AsStr()
		if !ok {
			return entity.Null(), fmt.Errorf("gslplan: column name must be string, got %s", args[1].Kind())
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
			return entity.Null(), fmt.Errorf("gslplan: event name must be string, got %s", args[0].Kind())
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
	case bLen:
		if s, ok := args[0].AsStr(); ok {
			return entity.Int(int64(len(s))), nil
		}
		return entity.Null(), fmt.Errorf("gslplan: len wants list or string, got %s", args[0].Kind())
	case bAbs:
		if i, ok := args[0].AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return entity.Int(i), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return entity.Null(), fmt.Errorf("gslplan: abs wants a number, got %s", args[0].Kind())
		}
		return entity.Float(math.Abs(f)), nil
	case bMin, bMax:
		fa, okA := args[0].AsFloat()
		fb, okB := args[1].AsFloat()
		if !okA || !okB {
			return entity.Null(), errors.New("gslplan: min/max want numbers")
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
			return entity.Null(), fmt.Errorf("gslplan: want a number, got %s", args[0].Kind())
		}
		if kind == bSqrt {
			return entity.Float(math.Sqrt(f)), nil
		}
		return entity.Float(math.Floor(f)), nil
	}
	return entity.Null(), fmt.Errorf("gslplan: unknown builtin kind %d", kind)
}

// ---------------------------------------------------------------------------
// Statement nodes

type stmtNode interface {
	exec(r *runner) (ctrl, error)
}

// execList runs a statement list. Fuel is checked after every
// statement rather than once at the end of the run, so an over-budget
// invocation stops within one statement of the cap instead of running
// to completion first; the caller falls back either way.
func execList(r *runner, body []stmtNode) (ctrl, error) {
	for _, st := range body {
		c, err := st.exec(r)
		if err != nil {
			return ctrlNone, err
		}
		if r.fuel > r.fuelCap {
			return ctrlNone, ErrFuel
		}
		if c != ctrlNone {
			return c, nil
		}
	}
	return ctrlNone, nil
}

// storeStmt is a let or assignment of a scalar expression.
type storeStmt struct {
	dest int
	v    valPlan
}

func (s *storeStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the let/assign node
	v, err := s.v.eval(r)
	if err != nil {
		return ctrlNone, err
	}
	r.scalars[s.dest] = v
	return ctrlNone, nil
}

// listStmt is a let or assignment whose right side is a nearby(...)
// probe landing in a list slot.
type listStmt struct {
	op opNode
}

func (s *listStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the let/assign node
	return ctrlNone, s.op.run(r)
}

// exprStmt evaluates and discards; the evaluation still runs so error
// and fuel behavior match the interpreter.
type exprStmt struct {
	v valPlan
}

func (s *exprStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the statement node
	_, err := s.v.eval(r)
	return ctrlNone, err
}

// ifStmt's branches run like the interpreter's execBlock — the branch
// block itself burns nothing, only its statements do.
type ifStmt struct {
	cond valPlan
	then []stmtNode
	els  []stmtNode // nil when absent
}

func (s *ifStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the if node
	v, err := s.cond.eval(r)
	if err != nil {
		return ctrlNone, err
	}
	b, ok := v.AsBool()
	if !ok {
		return ctrlNone, fmt.Errorf("gslplan: condition is %s, want bool", v.Kind())
	}
	if b {
		return execList(r, s.then)
	}
	return execList(r, s.els)
}

type blockStmt struct {
	body []stmtNode
}

func (s *blockStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the block node
	return execList(r, s.body)
}

// forStmt iterates a list slot, running the body once per id with the
// loop variable bound into its scalar slot. The sequence is either a
// named list (seqCost pays the ident burn) or an inline nearby probe
// (seqOps). Matching the interpreter, each completed iteration burns
// one trailing unit; a return propagating out of the body does not.
type forStmt struct {
	varSlot int
	seqOps  []opNode
	seqSlot int
	seqCost int64
	body    []stmtNode
}

func (s *forStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the for-in node
	for _, op := range s.seqOps {
		if err := op.run(r); err != nil {
			return ctrlNone, err
		}
	}
	r.fuel += s.seqCost
	for _, id := range r.lists[s.seqSlot] {
		r.scalars[s.varSlot] = entity.Int(int64(id))
		c, err := execList(r, s.body)
		if err != nil {
			return ctrlNone, err
		}
		if c == ctrlReturn {
			return ctrlReturn, nil
		}
		r.fuel++ // trailing per-iteration burn
	}
	return ctrlNone, nil
}

type returnStmt struct {
	v valPlan // nil for a bare return
}

func (s *returnStmt) exec(r *runner) (ctrl, error) {
	r.fuel++ // the return node
	if s.v != nil {
		v, err := s.v.eval(r)
		if err != nil {
			return ctrlNone, err
		}
		r.ret = v
	}
	return ctrlReturn, nil
}
