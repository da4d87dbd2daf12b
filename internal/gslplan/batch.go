package gslplan

import (
	"gamedb/internal/entity"
	"gamedb/internal/query"
	"gamedb/internal/script"
)

// This file is the set-at-a-time evaluation of a plan: RunBatch runs the
// same compiled nodes as Run, statement by statement over a selection
// vector of lanes, one lane per subject entity. Every node is visited
// once per batch instead of once per entity; each lane keeps its own
// scalar slots, list spans, fuel, control state and return value, and
// talks to the host through its own lane Env, so its reads, effects and
// rand draws are exactly the ones its scalar Run would make, in the same
// order.
//
// Control flow becomes masks: an if splits the selection into its then
// and else lanes; return, break and continue park a lane's control state,
// which drops it from the selection until the construct that consumes it;
// a for-in runs iteration-major, iteration k over the lanes whose list
// still has a k-th id. A lane that errors or burns past its fuel cap is
// marked failed and leaves the selection at the next statement boundary.
// A batch never words an error or stops a lane at the exact node: the
// caller re-runs every failed lane on Run, which alone decides its error
// text, fuel and outcome.

// BatchEnv is the host surface of RunBatch. Lane(l) is the Env of lane l
// of the batch in flight: every read it logs, effect it buffers and rand
// value it draws belongs to that lane's invocation alone, as if that
// entity's Run were executing against it.
type BatchEnv interface {
	Lane(l int) Env
}

// span locates one lane's nearby result in a batch's id arena.
type span struct{ off, len int32 }

// LaneResult is one lane's outcome of RunBatch. OK lanes completed within
// their fuel cap, and Val and Fuel are exactly what Run returns for that
// subject. A lane that is not OK errored, ran out of fuel, or belongs to a
// program that runs per entity (Program.SetAtATime): the caller drops
// whatever its lane Env buffered and re-runs it on Run.
type LaneResult struct {
	Val  entity.Value
	Fuel int64
	OK   bool
}

// SetAtATime reports whether RunBatch evaluates the program over a whole
// batch; PerEntity names the first construct that keeps it on one Run per
// entity ("" when none does).
func (p *Program) SetAtATime() bool { return p.perEntity == "" }

// RunBatch runs the plan once over subjects: lane l is the invocation
// Run(fuelCap, Int(subjects[l]), args[0][l], args[1][l], …) — a
// behavior's on_tick passes no columns, a rule side its amounts
// (fuelCap ≤ 0 selects script.DefaultFuel, as in Run). The returned slice
// has one result per subject and is valid until the next RunBatch. Every
// lane of a per-entity program, of a plan whose Env has no batch surface,
// or of a call whose columns do not match the entry's parameters comes
// back not OK.
func (p *Plan) RunBatch(fuelCap int64, subjects []entity.ID, args ...[]entity.Value) []LaneResult {
	b := &p.b
	b.reset(p.prog, len(subjects), fuelCap)
	if p.prog.perEntity != "" || b.env == nil || p.prog.nParams != 1+len(args) {
		clear(b.res)
		return b.res
	}
	for k, col := range args {
		if len(col) != len(subjects) {
			clear(b.res)
			return b.res
		}
		copy(b.vars[k+1], col)
	}
	sel := b.getSel()
	self := b.vars[0]
	for l, id := range subjects {
		self[l] = entity.Int(int64(id))
		sel = append(sel, int32(l))
	}
	execListB(b, p.prog.body, sel)
	b.putSel(sel)
	for l := range b.res {
		r := &b.res[l]
		r.Fuel = b.fuel[l]
		r.OK = !b.dead[l] && b.fuel[l] <= b.fuelCap
		r.Val = entity.Null()
		if r.OK && b.ctl[l] == ctrlReturn {
			r.Val = b.ret[l]
		}
	}
	return b.res
}

// batch is the per-lane execution state of one bound plan's RunBatch,
// reused run to run: after the first batches of a size, a run allocates
// nothing.
type batch struct {
	prog    *Program
	env     BatchEnv
	n       int
	fuelCap int64
	// spent bounds every lane's fuel: the burns charged to any selection
	// this run. marks counts the lanes failed or parked. While spent is
	// within the cap and marks is unchanged, a selection is still live.
	spent, marks int64

	fuel []int64
	dead []bool
	ctl  []ctrl
	ret  []entity.Value
	res  []LaneResult

	vars  [][]entity.Value // [scalar slot][lane]
	spans [][]span         // [list slot][lane]
	arena []entity.ID

	freeV    [][]entity.Value
	freeSels [][]int32
	freeSpan [][]span
}

func (b *batch) reset(p *Program, n int, fuelCap int64) {
	if fuelCap <= 0 {
		fuelCap = script.DefaultFuel
	}
	b.prog, b.n, b.fuelCap = p, n, fuelCap
	b.spent, b.marks = 0, 0
	b.fuel = grow(b.fuel, n)
	b.dead = grow(b.dead, n)
	b.ctl = grow(b.ctl, n)
	b.ret = grow(b.ret, n)
	b.res = grow(b.res, n)
	clear(b.fuel)
	clear(b.dead)
	clear(b.ctl)
	for len(b.vars) < p.nScalars {
		b.vars = append(b.vars, nil)
	}
	for i := range b.vars {
		b.vars[i] = grow(b.vars[i], n)
	}
	for len(b.spans) < p.nLists {
		b.spans = append(b.spans, nil)
	}
	for i := range b.spans {
		b.spans[i] = grow(b.spans[i], n)
		clear(b.spans[i])
	}
	b.arena = b.arena[:0]
}

// grow returns s resliced to n, reallocated only when its capacity is
// short. A chunk's size drifts by a few entities tick to tick, so a new
// array leaves room for it to grow.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, roomFor(n))
	}
	return s[:n]
}

// roomFor is the capacity a batch allocates for n lanes.
func roomFor(n int) int { return n + n/8 + 16 }

// burn charges k nodes to every lane of sel. Every node of an expression
// evaluated over a selection burns on all of it — only the right operand
// of && and || runs on fewer lanes — so a statement charges its own node
// and its expression's in one pass (cost). The cap is checked at
// statement boundaries (live): a lane over it is failed, and Run re-runs
// it to find the node that crossed.
func (b *batch) burn(sel []int32, k int64) {
	b.spent += k
	for _, l := range sel {
		b.fuel[l] += k
	}
}

// fail marks lane l failed.
func (b *batch) fail(l int32) {
	b.dead[l] = true
	b.marks++
}

// live appends to dst the lanes of sel still running normally: not
// failed, within the cap, and not parked on a return, break or continue.
// dst may alias sel[:0].
func (b *batch) live(dst, sel []int32) []int32 {
	if b.spent <= b.fuelCap { // no lane can be over the cap
		for _, l := range sel {
			if !b.dead[l] && b.ctl[l] == ctrlNone {
				dst = append(dst, l)
			}
		}
		return dst
	}
	for _, l := range sel {
		if !b.dead[l] && b.ctl[l] == ctrlNone && b.fuel[l] <= b.fuelCap {
			dst = append(dst, l)
		}
	}
	return dst
}

func (b *batch) getSel() []int32 { return pop(&b.freeSels, b.n)[:0] }

func (b *batch) putSel(s []int32) { b.freeSels = append(b.freeSels, s) }

// execListB runs a statement list over the live lanes of sel.
func execListB(b *batch, body []stmtNode, sel []int32) {
	if len(body) == 0 {
		return
	}
	s := b.live(b.getSel(), sel)
	for _, st := range body {
		if len(s) == 0 {
			break
		}
		marks := b.marks
		st.execB(b, s)
		if b.marks != marks || b.spent > b.fuelCap {
			s = b.live(s[:0], s)
		}
	}
	b.putSel(s)
}

// ---------------------------------------------------------------------------
// Lane values

// vec is an expression's lane values, indexed by lane and valid on the
// selection they were evaluated over: one boxed value per lane, or, when
// v is nil, the constant c for every lane. A scratch vec goes back to the
// pool with drop; a variable's own storage is borrowed, never dropped.
type vec struct {
	c   entity.Value
	v   []entity.Value
	own bool
}

// at returns lane l's value.
func (x *vec) at(l int32) entity.Value {
	if x.v == nil {
		return x.c
	}
	return x.v[l]
}

// ref is at without the copy.
func (x *vec) ref(l int32) *entity.Value {
	if x.v == nil {
		return &x.c
	}
	return &x.v[l]
}

// pop takes a slice of at least n elements off a free list, or makes one.
func pop[T any](free *[][]T, n int) []T {
	for k := len(*free); k > 0; k = len(*free) {
		s := (*free)[k-1]
		*free = (*free)[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n, roomFor(n))
}

// scratch returns a vec with pooled storage for every lane.
func (b *batch) scratch() vec {
	return vec{v: pop(&b.freeV, b.n), own: true}
}

func (b *batch) drop(x vec) {
	if x.own {
		b.freeV = append(b.freeV, x.v)
	}
}

// apply is query.Apply of op over every lane of sel; a lane whose
// operands it rejects fails. Two floats under +, -, * and / — mingle's
// centroid sums — and two ints under anything but / and % — a rule's
// amount tests and counters — skip query.Apply's kind dispatch. / and %
// of two ints stay on query.Apply, which rejects a zero divisor.
func (b *batch) apply(op query.BinOp, x, y *vec, sel []int32) vec {
	out := b.scratch()
	for _, l := range sel {
		xv, yv := x.ref(l), y.ref(l)
		switch xk, yk := xv.Kind(), yv.Kind(); {
		case xk == entity.KindFloat && yk == entity.KindFloat && op <= query.OpDiv:
			out.v[l] = entity.Float(floatArith(op, xv.Float(), yv.Float()))
			continue
		case xk == entity.KindInt && yk == entity.KindInt && op != query.OpDiv && op != query.OpMod:
			out.v[l] = intOp(op, xv.Int(), yv.Int())
			continue
		}
		v, err := query.Apply(op, *xv, *yv)
		if err != nil {
			b.fail(l)
			continue
		}
		out.v[l] = v
	}
	return out
}

// floatArith is query.Apply's +, -, * and / of two floats.
func floatArith(op query.BinOp, a, c float64) float64 {
	switch op {
	case query.OpAdd:
		return a + c
	case query.OpSub:
		return a - c
	case query.OpMul:
		return a * c
	}
	return a / c
}

// intOp is query.Apply of op, anything but / and %, over two ints: +, -
// and * wrap like int64, the orderings compare exactly, and == and !=
// compare the ints as floats, as query's equality does for any two
// numbers — 2^53 and 2^53+1 are equal.
func intOp(op query.BinOp, a, c int64) entity.Value {
	switch op {
	case query.OpAdd:
		return entity.Int(a + c)
	case query.OpSub:
		return entity.Int(a - c)
	case query.OpMul:
		return entity.Int(a * c)
	case query.OpEq:
		return entity.Bool(float64(a) == float64(c))
	case query.OpNe:
		return entity.Bool(float64(a) != float64(c))
	case query.OpLt:
		return entity.Bool(a < c)
	case query.OpLe:
		return entity.Bool(a <= c)
	case query.OpGt:
		return entity.Bool(a > c)
	}
	return entity.Bool(a >= c)
}

// ---------------------------------------------------------------------------
// Expression nodes

func (c *constVal) evalB(b *batch, sel []int32) vec {
	return vec{c: c.v}
}

func (s *slotVal) evalB(b *batch, sel []int32) vec {
	return vec{v: b.vars[s.slot]}
}

func (u *unVal) evalB(b *batch, sel []int32) vec {
	in := u.e.evalB(b, sel)
	out := b.scratch()
	for _, l := range sel {
		v := in.at(l)
		switch {
		case !u.neg:
			x, ok := v.AsBool()
			if !ok {
				b.fail(l)
			}
			out.v[l] = entity.Bool(!x)
		case v.Kind() == entity.KindInt:
			out.v[l] = entity.Int(-v.Int())
		case v.Kind() == entity.KindFloat:
			out.v[l] = entity.Float(-v.Float())
		default:
			b.fail(l)
		}
	}
	b.drop(in)
	return out
}

func (k *binVal) evalB(b *batch, sel []int32) vec {
	lv := k.l.evalB(b, sel)
	rv := k.r.evalB(b, sel)
	out := b.apply(k.op, &lv, &rv, sel)
	b.drop(lv)
	b.drop(rv)
	return out
}

func (v *logicalVal) evalB(b *batch, sel []int32) vec {
	lv := v.l.evalB(b, sel)
	out := b.scratch()
	rest := b.getSel()
	for _, l := range sel {
		x, ok := lv.at(l).AsBool()
		switch {
		case !ok:
			b.fail(l)
		case v.or == x: // and:false / or:true short-circuits
			out.v[l] = entity.Bool(x)
		default:
			rest = append(rest, l)
		}
	}
	b.drop(lv)
	if len(rest) > 0 {
		b.burn(rest, v.r.cost())
		rv := v.r.evalB(b, rest)
		for _, l := range rest {
			y, ok := rv.at(l).AsBool()
			if !ok {
				b.fail(l)
			}
			out.v[l] = entity.Bool(y)
		}
		b.drop(rv)
	}
	b.putSel(rest)
	return out
}

func (c *callVal) evalB(b *batch, sel []int32) vec {
	var args [4]vec
	for i, a := range c.args {
		args[i] = a.evalB(b, sel)
	}
	out := b.scratch()
	var av [4]entity.Value
	for _, l := range sel {
		if b.dead[l] {
			continue
		}
		for i := range c.args {
			av[i] = args[i].at(l)
		}
		var env Env
		if c.kind < bLen { // the host builtins
			env = b.env.Lane(int(l))
		}
		v, err := dispatch(env, c.kind, c.name, av[:len(c.args)])
		if err != nil {
			b.fail(l)
			continue
		}
		out.v[l] = v
	}
	for i := range c.args {
		b.drop(args[i])
	}
	return out
}

func (l *lenListVal) evalB(b *batch, sel []int32) vec {
	out := b.scratch()
	spans := b.spans[l.src]
	for _, ln := range sel {
		out.v[ln] = entity.Int(int64(spans[ln].len))
	}
	return out
}

// evalB of a user call is never reached: a call to a user function keeps
// its program per entity. Failing the lanes keeps that a fallback, not a
// wrong answer.
func (u *userCallVal) evalB(b *batch, sel []int32) vec {
	for _, l := range sel {
		b.fail(l)
	}
	return vec{}
}

// runB is nearby over the batch, its burns (cost) already charged: both
// arguments, then each lane whose arguments check appends its answer to
// the arena through its own Env, which logs the lane's reads.
func (o *nearbyOp) runB(b *batch, sel []int32) {
	idv := o.idArg.evalB(b, sel)
	radv := o.radArg.evalB(b, sel)
	spans := b.spans[o.dest]
	for _, l := range sel {
		if b.dead[l] {
			continue
		}
		id, err := asID(idv.at(l))
		rad, ok := radv.at(l).AsFloat()
		if err != nil || !ok {
			b.fail(l)
			continue
		}
		off := len(b.arena)
		b.arena = b.env.Lane(int(l)).AppendNearby(b.arena, id, rad)
		spans[l] = span{off: int32(off), len: int32(len(b.arena) - off)}
	}
	b.drop(idv)
	b.drop(radv)
}

// ---------------------------------------------------------------------------
// Statement nodes

func (s *storeStmt) execB(b *batch, sel []int32) {
	b.burn(sel, 1+s.v.cost())
	v := s.v.evalB(b, sel)
	dst := b.vars[s.dest]
	for _, l := range sel {
		dst[l] = v.at(l)
	}
	b.drop(v)
}

func (s *listStmt) execB(b *batch, sel []int32) {
	b.burn(sel, 1+s.op.cost())
	s.op.runB(b, sel)
}

func (s *exprStmt) execB(b *batch, sel []int32) {
	b.burn(sel, 1+s.v.cost())
	b.drop(s.v.evalB(b, sel))
}

func (s *ifStmt) execB(b *batch, sel []int32) {
	b.burn(sel, 1+s.cond.cost())
	cond := s.cond.evalB(b, sel)
	then, els := b.getSel(), b.getSel()
	for _, l := range sel {
		x, ok := cond.at(l).AsBool()
		switch {
		case !ok:
			b.fail(l)
		case x:
			then = append(then, l)
		default:
			els = append(els, l)
		}
	}
	b.drop(cond)
	execListB(b, s.then, then)
	execListB(b, s.els, els)
	b.putSel(then)
	b.putSel(els)
}

func (s *blockStmt) execB(b *batch, sel []int32) {
	b.burn(sel, 1)
	execListB(b, s.body, sel)
}

// execB runs the loop iteration-major. The lanes' lists are captured when
// the loop starts, so a body that refills the list it ranges over keeps
// walking the one it started on (the arena is append-only). After each
// iteration a lane that finished the body normally burns the trailing
// unit and goes round again; continue goes round without it; break leaves
// the loop normally; return and failures leave it parked.
func (s *forStmt) execB(b *batch, sel []int32) {
	if s.seqOp != nil {
		b.burn(sel, 1+s.seqOp.cost())
		s.seqOp.runB(b, sel)
	} else {
		b.burn(sel, 2) // the loop and the list variable
	}
	seq := pop(&b.freeSpan, b.n)
	copy(seq, b.spans[s.seqSlot])
	cur := b.live(b.getSel(), sel)
	loopVar := b.vars[s.varSlot]
	for k := int32(0); ; k++ {
		n := 0
		for _, l := range cur {
			if k < seq[l].len {
				cur[n] = l
				n++
			}
		}
		cur = cur[:n]
		if n == 0 {
			break
		}
		for _, l := range cur {
			loopVar[l] = entity.Int(int64(b.arena[seq[l].off+k]))
		}
		execListB(b, s.body, cur)
		n = 0
		for _, l := range cur {
			if b.dead[l] {
				continue
			}
			switch b.ctl[l] {
			case ctrlNone:
				b.fuel[l]++ // the iteration's trailing unit
			case ctrlContinue:
				b.ctl[l] = ctrlNone
			case ctrlBreak:
				b.ctl[l] = ctrlNone
				continue
			default: // return
				continue
			}
			if b.fuel[l] <= b.fuelCap {
				cur[n] = l
				n++
			}
		}
		cur = cur[:n]
		b.spent++
	}
	b.putSel(cur)
	b.freeSpan = append(b.freeSpan, seq)
}

// execB of a while loop is never reached: while keeps its program per
// entity.
func (s *whileStmt) execB(b *batch, sel []int32) {
	for _, l := range sel {
		b.fail(l)
	}
}

func (s *returnStmt) execB(b *batch, sel []int32) {
	b.marks++
	if s.v == nil {
		b.burn(sel, 1)
		for _, l := range sel {
			b.ret[l], b.ctl[l] = entity.Null(), ctrlReturn
		}
		return
	}
	b.burn(sel, 1+s.v.cost())
	v := s.v.evalB(b, sel)
	for _, l := range sel {
		b.ret[l], b.ctl[l] = v.at(l), ctrlReturn
	}
	b.drop(v)
}

func (s *jumpStmt) execB(b *batch, sel []int32) {
	b.burn(sel, 1)
	b.marks++
	for _, l := range sel {
		b.ctl[l] = s.c
	}
}

// ---------------------------------------------------------------------------
// Burn costs: the nodes an expression burns on the selection it is
// evaluated over, which is all of them but the right operand of && and ||.

func (c *constVal) cost() int64 { return 1 }

func (s *slotVal) cost() int64 { return 1 }

func (u *unVal) cost() int64 { return 1 + u.e.cost() }

func (k *binVal) cost() int64 { return 1 + k.l.cost() + k.r.cost() }

func (v *logicalVal) cost() int64 { return 1 + v.l.cost() }

func (c *callVal) cost() int64 { return 1 + argsCost(c.args) }

func (l *lenListVal) cost() int64 { return 2 } // the call and its argument

func (u *userCallVal) cost() int64 { return 1 + argsCost(u.args) }

// cost of nearby: the call node and both arguments.
func (o *nearbyOp) cost() int64 { return 1 + o.idArg.cost() + o.radArg.cost() }

func argsCost(args []valPlan) int64 {
	n := int64(0)
	for _, a := range args {
		n += a.cost()
	}
	return n
}
