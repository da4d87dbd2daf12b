package query

import (
	"fmt"
	"math"

	"gamedb/internal/entity"
)

// Expr is a scalar expression over a tuple stream. Bind resolves column
// references against a descriptor once; Eval then runs without lookups.
type Expr interface {
	// Bind resolves column references against d.
	Bind(d *Desc) error
	// Eval computes the expression over one tuple.
	Eval(t Tuple) (entity.Value, error)
	// String renders the expression for plan display.
	String() string
}

// Col references a named column.
func Col(name string) Expr { return &colRef{name: name} }

type colRef struct {
	name string
	idx  int
}

func (c *colRef) Bind(d *Desc) error {
	i, ok := d.Col(c.name)
	if !ok {
		return fmt.Errorf("query: unknown column %q (have %v)", c.name, d.Names())
	}
	c.idx = i
	return nil
}

func (c *colRef) Eval(t Tuple) (entity.Value, error) { return t[c.idx], nil }
func (c *colRef) String() string                     { return c.name }

// Const wraps a literal value.
func Const(v entity.Value) Expr { return constExpr{v} }

// ConstInt is shorthand for Const(entity.Int(n)).
func ConstInt(n int64) Expr { return constExpr{entity.Int(n)} }

// ConstFloat is shorthand for Const(entity.Float(f)).
func ConstFloat(f float64) Expr { return constExpr{entity.Float(f)} }

// ConstStr is shorthand for Const(entity.Str(s)).
func ConstStr(s string) Expr { return constExpr{entity.Str(s)} }

// ConstBool is shorthand for Const(entity.Bool(b)).
func ConstBool(b bool) Expr { return constExpr{entity.Bool(b)} }

type constExpr struct{ v entity.Value }

func (c constExpr) Bind(*Desc) error                 { return nil }
func (c constExpr) Eval(Tuple) (entity.Value, error) { return c.v, nil }
func (c constExpr) String() string                   { return c.v.String() }

// BinOp is a binary operator of the expression language: what the Add …
// Or builders construct, and what Apply evaluates on its own.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "and", OpOr: "or",
}

type binExpr struct {
	kind BinOp
	l, r Expr
}

// Add returns l + r (int if both int, else float).
func Add(l, r Expr) Expr { return &binExpr{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &binExpr{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &binExpr{OpMul, l, r} }

// Div returns l / r; integer division when both operands are ints.
func Div(l, r Expr) Expr { return &binExpr{OpDiv, l, r} }

// Mod returns l % r: the integer remainder when both operands are ints,
// math.Mod otherwise.
func Mod(l, r Expr) Expr { return &binExpr{OpMod, l, r} }

// Eq returns l = r.
func Eq(l, r Expr) Expr { return &binExpr{OpEq, l, r} }

// Ne returns l != r.
func Ne(l, r Expr) Expr { return &binExpr{OpNe, l, r} }

// Lt returns l < r.
func Lt(l, r Expr) Expr { return &binExpr{OpLt, l, r} }

// Le returns l <= r.
func Le(l, r Expr) Expr { return &binExpr{OpLe, l, r} }

// Gt returns l > r.
func Gt(l, r Expr) Expr { return &binExpr{OpGt, l, r} }

// Ge returns l >= r.
func Ge(l, r Expr) Expr { return &binExpr{OpGe, l, r} }

// And returns l and r. Short-circuits like GSL: r is not evaluated
// when l is false.
func And(l, r Expr) Expr { return &binExpr{OpAnd, l, r} }

// Or returns l or r. Short-circuits like GSL: r is not evaluated when
// l is true.
func Or(l, r Expr) Expr { return &binExpr{OpOr, l, r} }

func (b *binExpr) Bind(d *Desc) error {
	if err := b.l.Bind(d); err != nil {
		return err
	}
	return b.r.Bind(d)
}

func (b *binExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.l, binNames[b.kind], b.r)
}

func (b *binExpr) Eval(t Tuple) (entity.Value, error) {
	if b.kind == OpAnd || b.kind == OpOr {
		// Short-circuit first, exactly like the GSL interpreter: the
		// right side is never evaluated when the left side decides.
		lv, err := b.l.Eval(t)
		if err != nil {
			return entity.Null(), err
		}
		lb, ok := lv.AsBool()
		if !ok {
			return entity.Null(), fmt.Errorf("query: %s needs bool, got %s",
				binNames[b.kind], lv.Kind())
		}
		if b.kind == OpAnd && !lb {
			return entity.Bool(false), nil
		}
		if b.kind == OpOr && lb {
			return entity.Bool(true), nil
		}
		rv, err := b.r.Eval(t)
		if err != nil {
			return entity.Null(), err
		}
		rb, ok := rv.AsBool()
		if !ok {
			return entity.Null(), fmt.Errorf("query: %s needs bool, got %s",
				binNames[b.kind], rv.Kind())
		}
		return entity.Bool(rb), nil
	}
	lv, err := b.l.Eval(t)
	if err != nil {
		return entity.Null(), err
	}
	rv, err := b.r.Eval(t)
	if err != nil {
		return entity.Null(), err
	}
	return Apply(b.kind, lv, rv)
}

// Apply computes l op r for an arithmetic or comparison operator — what
// the expression built by Add … Ge yields once both operands are
// evaluated. The short-circuit operators need their right operand
// unevaluated and are refused.
func Apply(op BinOp, l, r entity.Value) (entity.Value, error) {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(op, l, r)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return evalCompare(op, l, r)
	default:
		return entity.Null(), fmt.Errorf("query: bad op %d", op)
	}
}

func evalArith(k BinOp, l, r entity.Value) (entity.Value, error) {
	if k == OpAdd {
		// String concatenation, like GSL's +.
		if ls, ok := l.AsStr(); ok {
			if rs, ok2 := r.AsStr(); ok2 {
				return entity.Str(ls + rs), nil
			}
		}
	}
	if li, ok := l.AsInt(); ok {
		if ri, ok2 := r.AsInt(); ok2 {
			switch k {
			case OpAdd:
				return entity.Int(li + ri), nil
			case OpSub:
				return entity.Int(li - ri), nil
			case OpMul:
				return entity.Int(li * ri), nil
			case OpMod:
				if ri == 0 {
					return entity.Null(), fmt.Errorf("query: modulo by zero")
				}
				return entity.Int(li % ri), nil
			case OpDiv:
				if ri == 0 {
					return entity.Null(), fmt.Errorf("query: integer division by zero")
				}
				return entity.Int(li / ri), nil
			}
		}
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return entity.Null(), fmt.Errorf("query: %s needs numbers, got %s/%s",
			binNames[k], l.Kind(), r.Kind())
	}
	switch k {
	case OpAdd:
		return entity.Float(lf + rf), nil
	case OpSub:
		return entity.Float(lf - rf), nil
	case OpMul:
		return entity.Float(lf * rf), nil
	case OpMod:
		return entity.Float(math.Mod(lf, rf)), nil
	default:
		return entity.Float(lf / rf), nil
	}
}

// valueEq mirrors GSL equality: numerics compare as floats (so int 1
// equals float 1.0, and NaN equals nothing including itself),
// same-kind values compare by payload, and different kinds are simply
// unequal — never an error.
func valueEq(l, r entity.Value) bool {
	if lf, ok := l.AsFloat(); ok {
		rf, ok2 := r.AsFloat()
		return ok2 && lf == rf
	}
	if l.Kind() != r.Kind() {
		return false
	}
	switch l.Kind() {
	case entity.KindInvalid:
		return true
	case entity.KindString:
		return l.Str() == r.Str()
	case entity.KindBool:
		return l.Bool() == r.Bool()
	default:
		return false
	}
}

// evalCompare mirrors GSL comparison semantics exactly: equality never
// errors (valueEq), ordering takes the exact int64 path when both
// sides are ints, the IEEE float path when both are numeric (every
// NaN comparison is false, unlike a three-way compare), lexicographic
// order for string pairs, and errors for anything else (bools and
// nulls have no order).
func evalCompare(k BinOp, l, r entity.Value) (entity.Value, error) {
	switch k {
	case OpEq:
		return entity.Bool(valueEq(l, r)), nil
	case OpNe:
		return entity.Bool(!valueEq(l, r)), nil
	}
	if li, ok := l.AsInt(); ok {
		if ri, ok2 := r.AsInt(); ok2 {
			switch k {
			case OpLt:
				return entity.Bool(li < ri), nil
			case OpLe:
				return entity.Bool(li <= ri), nil
			case OpGt:
				return entity.Bool(li > ri), nil
			default:
				return entity.Bool(li >= ri), nil
			}
		}
	}
	if lf, ok := l.AsFloat(); ok {
		if rf, ok2 := r.AsFloat(); ok2 {
			switch k {
			case OpLt:
				return entity.Bool(lf < rf), nil
			case OpLe:
				return entity.Bool(lf <= rf), nil
			case OpGt:
				return entity.Bool(lf > rf), nil
			default:
				return entity.Bool(lf >= rf), nil
			}
		}
	}
	if ls, ok := l.AsStr(); ok {
		if rs, ok2 := r.AsStr(); ok2 {
			switch k {
			case OpLt:
				return entity.Bool(ls < rs), nil
			case OpLe:
				return entity.Bool(ls <= rs), nil
			case OpGt:
				return entity.Bool(ls > rs), nil
			default:
				return entity.Bool(ls >= rs), nil
			}
		}
	}
	return entity.Null(), fmt.Errorf("query: invalid operands %s %s %s",
		l.Kind(), binNames[k], r.Kind())
}

// Not negates a boolean expression.
func Not(e Expr) Expr { return &notExpr{e} }

type notExpr struct{ e Expr }

func (n *notExpr) Bind(d *Desc) error { return n.e.Bind(d) }
func (n *notExpr) String() string     { return fmt.Sprintf("(not %s)", n.e) }
func (n *notExpr) Eval(t Tuple) (entity.Value, error) {
	v, err := n.e.Eval(t)
	if err != nil {
		return entity.Null(), err
	}
	b, ok := v.AsBool()
	if !ok {
		return entity.Null(), fmt.Errorf("query: not needs bool, got %s", v.Kind())
	}
	return entity.Bool(!b), nil
}

// Neg negates a numeric expression.
func Neg(e Expr) Expr { return &negExpr{e} }

type negExpr struct{ e Expr }

func (n *negExpr) Bind(d *Desc) error { return n.e.Bind(d) }
func (n *negExpr) String() string     { return fmt.Sprintf("(-%s)", n.e) }
func (n *negExpr) Eval(t Tuple) (entity.Value, error) {
	v, err := n.e.Eval(t)
	if err != nil {
		return entity.Null(), err
	}
	if i, ok := v.AsInt(); ok {
		return entity.Int(-i), nil
	}
	if f, ok := v.AsFloat(); ok {
		return entity.Float(-f), nil
	}
	return entity.Null(), fmt.Errorf("query: neg needs number, got %s", v.Kind())
}

// Dist2 computes the squared Euclidean distance between points
// (ax, ay) and (bx, by) — the predicate at the heart of interaction
// scripts and band joins.
func Dist2(ax, ay, bx, by Expr) Expr { return &dist2Expr{ax, ay, bx, by} }

type dist2Expr struct{ ax, ay, bx, by Expr }

func (d *dist2Expr) Bind(desc *Desc) error {
	for _, e := range []Expr{d.ax, d.ay, d.bx, d.by} {
		if err := e.Bind(desc); err != nil {
			return err
		}
	}
	return nil
}

func (d *dist2Expr) String() string {
	return fmt.Sprintf("dist2(%s,%s,%s,%s)", d.ax, d.ay, d.bx, d.by)
}

func (d *dist2Expr) Eval(t Tuple) (entity.Value, error) {
	vals := [4]float64{}
	for i, e := range []Expr{d.ax, d.ay, d.bx, d.by} {
		v, err := e.Eval(t)
		if err != nil {
			return entity.Null(), err
		}
		f, ok := v.AsFloat()
		if !ok {
			return entity.Null(), fmt.Errorf("query: dist2 needs numbers, got %s", v.Kind())
		}
		vals[i] = f
	}
	dx := vals[0] - vals[2]
	dy := vals[1] - vals[3]
	return entity.Float(dx*dx + dy*dy), nil
}

// EvalPred evaluates e as a predicate, failing if non-boolean.
func EvalPred(e Expr, t Tuple) (bool, error) {
	v, err := e.Eval(t)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("query: predicate returned %s, want bool", v.Kind())
	}
	return b, nil
}
