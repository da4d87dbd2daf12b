package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/query"
	"gamedb/internal/script"
)

// The compiled behavior path (internal/gslplan) lowers pure GSL
// fragments onto query expressions, so query.Expr evaluation must be an
// exact semantic twin of script.Interp's evaluator: integer division by
// zero errors while float division yields ±Inf/NaN, int operands coerce
// to float in mixed arithmetic, == across numeric kinds compares as
// float, && and || short-circuit, type mismatches error in both. These
// tests pin the pair on directed edge cases and on a fuzz of randomized
// expression trees built simultaneously as GSL source and as a query
// plan.

// evalGSL runs `return <src>;` through the interpreter with variables
// a, b, c bound to the tuple and converts the result to a store value.
func evalGSL(t *testing.T, src string, tup query.Tuple) (entity.Value, error) {
	t.Helper()
	prog, err := script.Parse(fmt.Sprintf("fn test(a, b, c) { return %s; }", src))
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	in := script.NewInterp(prog, script.Options{Fuel: 1 << 40})
	v, err := in.Call("test",
		script.FromEntity(tup[0]), script.FromEntity(tup[1]), script.FromEntity(tup[2]))
	if err != nil {
		return entity.Null(), err
	}
	ev, err := toEntity(v)
	if err != nil {
		t.Fatalf("%q returned a non-storable value: %v", src, err)
	}
	return ev, nil
}

// evalQuery binds the expression against (a, b, c) and evaluates it
// over the tuple.
func evalQuery(t *testing.T, e query.Expr, tup query.Tuple) (entity.Value, error) {
	t.Helper()
	if err := e.Bind(query.MustDesc("a", "b", "c")); err != nil {
		t.Fatalf("bind: %v", err)
	}
	return e.Eval(tup)
}

// sameValue is exact equality including kind — 1 ≠ 1.0 here, because
// the two evaluators must agree on representation, not just magnitude.
// NaN equals NaN (bit-level float comparison).
func sameValue(a, b entity.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case entity.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a == b
	}
}

func checkPair(t *testing.T, src string, e query.Expr, tup query.Tuple) {
	t.Helper()
	iv, ierr := evalGSL(t, src, tup)
	qv, qerr := evalQuery(t, e, tup)
	if (ierr == nil) != (qerr == nil) {
		t.Errorf("%q over %v: interp err=%v, query err=%v", src, tup, ierr, qerr)
		return
	}
	if ierr == nil && !sameValue(iv, qv) {
		t.Errorf("%q over %v: interp=%s query=%s", src, tup, iv, qv)
	}
}

func TestExprParityDirected(t *testing.T) {
	tup := query.Tuple{entity.Int(7), entity.Float(2.5), entity.Str("xy")}
	cases := []struct {
		src string
		e   query.Expr
	}{
		// Division and modulo: int/int errors on zero, any float operand
		// coerces and yields IEEE results.
		{"1 / 0", query.Div(query.ConstInt(1), query.ConstInt(0))},
		{"1 % 0", query.Mod(query.ConstInt(1), query.ConstInt(0))},
		{"1 / 2", query.Div(query.ConstInt(1), query.ConstInt(2))},
		{"1 / 2.0", query.Div(query.ConstInt(1), query.ConstFloat(2))},
		{"1.0 / 0.0", query.Div(query.ConstFloat(1), query.ConstFloat(0))},
		{"0.0 / 0.0", query.Div(query.ConstFloat(0), query.ConstFloat(0))},
		{"7 % 2.0", query.Mod(query.ConstInt(7), query.ConstFloat(2))},
		{"7.5 % 0.0", query.Mod(query.ConstFloat(7.5), query.ConstFloat(0))},
		// Int/float coercion in arithmetic and ordering.
		{"a + b", query.Add(query.Col("a"), query.Col("b"))},
		{"a * b", query.Mul(query.Col("a"), query.Col("b"))},
		{"a < b", query.Lt(query.Col("a"), query.Col("b"))},
		{"1 == 1.0", query.Eq(query.ConstInt(1), query.ConstFloat(1))},
		{"1 != 1.5", query.Ne(query.ConstInt(1), query.ConstFloat(1.5))},
		// Equality across kinds is false, not an error; ordering across
		// kinds errors.
		{`a == "xy"`, query.Eq(query.Col("a"), query.ConstStr("xy"))},
		{`c == "xy"`, query.Eq(query.Col("c"), query.ConstStr("xy"))},
		{`a < "xy"`, query.Lt(query.Col("a"), query.ConstStr("xy"))},
		{"true < false", query.Lt(query.ConstBool(true), query.ConstBool(false))},
		// String concatenation, and + on mismatched kinds.
		{`c + "z"`, query.Add(query.Col("c"), query.ConstStr("z"))},
		{"1 + true", query.Add(query.ConstInt(1), query.ConstBool(true))},
		{`1 + "z"`, query.Add(query.ConstInt(1), query.ConstStr("z"))},
		// Short-circuit: the poisoned side must never evaluate.
		{"true || 1 / 0 == 1", query.Or(query.ConstBool(true),
			query.Eq(query.Div(query.ConstInt(1), query.ConstInt(0)), query.ConstInt(1)))},
		{"false && 1 / 0 == 1", query.And(query.ConstBool(false),
			query.Eq(query.Div(query.ConstInt(1), query.ConstInt(0)), query.ConstInt(1)))},
		{"false || 1 / 0 == 1", query.Or(query.ConstBool(false),
			query.Eq(query.Div(query.ConstInt(1), query.ConstInt(0)), query.ConstInt(1)))},
		// Non-bool operands of logic error (even on the unreached side
		// the left operand check still applies).
		{"1 && true", query.And(query.ConstInt(1), query.ConstBool(true))},
		{"true && 1", query.And(query.ConstBool(true), query.ConstInt(1))},
		// Unary.
		{"-a", query.Neg(query.Col("a"))},
		{"-b", query.Neg(query.Col("b"))},
		{"-c", query.Neg(query.Col("c"))},
		{"!(a < 0)", query.Not(query.Lt(query.Col("a"), query.ConstInt(0)))},
		{"!a", query.Not(query.Col("a"))},
	}
	for _, tc := range cases {
		checkPair(t, tc.src, tc.e, tup)
	}
}

// exprGen builds one random expression simultaneously as GSL source and
// as a query expression. Trees are type-blind on purpose: ill-typed
// nodes must error identically in both evaluators.
type exprGen struct {
	rng *rand.Rand
}

func (g *exprGen) gen(depth int) (string, query.Expr) {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			n := int64(g.rng.Intn(7))
			return strconv.FormatInt(n, 10), query.ConstInt(n)
		case 1:
			f := math.Trunc(g.rng.Float64()*80) / 16 // small, exactly representable
			s := strconv.FormatFloat(f, 'f', -1, 64)
			if math.Trunc(f) == f {
				s = strconv.FormatFloat(f, 'f', 1, 64)
			}
			return s, query.ConstFloat(f)
		case 2:
			b := g.rng.Intn(2) == 0
			return strconv.FormatBool(b), query.ConstBool(b)
		case 3:
			return `"s"`, query.ConstStr("s")
		default:
			name := []string{"a", "b", "c"}[g.rng.Intn(3)]
			return name, query.Col(name)
		}
	}
	if g.rng.Intn(8) == 0 {
		src, e := g.gen(depth - 1)
		if g.rng.Intn(2) == 0 {
			return "(-" + src + ")", query.Neg(e)
		}
		return "(!" + src + ")", query.Not(e)
	}
	type binOp struct {
		tok   string
		build func(l, r query.Expr) query.Expr
	}
	ops := []binOp{
		{"+", query.Add}, {"-", query.Sub}, {"*", query.Mul}, {"/", query.Div}, {"%", query.Mod},
		{"==", query.Eq}, {"!=", query.Ne}, {"<", query.Lt}, {"<=", query.Le},
		{">", query.Gt}, {">=", query.Ge}, {"&&", query.And}, {"||", query.Or},
	}
	op := ops[g.rng.Intn(len(ops))]
	ls, le := g.gen(depth - 1)
	rs, re := g.gen(depth - 1)
	return "(" + ls + " " + op.tok + " " + rs + ")", op.build(le, re)
}

func TestExprParityRandomized(t *testing.T) {
	tuples := []query.Tuple{
		{entity.Int(7), entity.Float(2.5), entity.Str("xy")},
		{entity.Int(-3), entity.Int(0), entity.Float(0)},
		{entity.Float(1.25), entity.Bool(true), entity.Null()},
		{entity.Int(2), entity.Float(-0.5), entity.Bool(false)},
	}
	g := &exprGen{rng: rand.New(rand.NewSource(20090617))}
	errs, evals := 0, 0
	for i := 0; i < 3000; i++ {
		src, e := g.gen(3)
		tup := tuples[i%len(tuples)]
		iv, ierr := evalGSL(t, src, tup)
		qv, qerr := evalQuery(t, e, tup)
		if (ierr == nil) != (qerr == nil) {
			t.Fatalf("case %d %q over %v: interp err=%v, query err=%v", i, src, tup, ierr, qerr)
		}
		if ierr != nil {
			errs++
			continue
		}
		evals++
		if !sameValue(iv, qv) {
			t.Fatalf("case %d %q over %v: interp=%s query=%s", i, src, tup, iv, qv)
		}
	}
	// The fuzz must exercise both regimes; an all-error (or error-free)
	// run means the generator degenerated.
	if evals < 200 || errs < 200 {
		t.Fatalf("degenerate fuzz: %d clean evals, %d errors", evals, errs)
	}
}

// toEntity converts a script value into a store value; lists do not fit
// in table cells and fail.
func toEntity(v script.Value) (entity.Value, error) {
	switch v.Kind() {
	case script.KInt:
		i, _ := v.AsInt()
		return entity.Int(i), nil
	case script.KFloat:
		f, _ := v.AsFloat()
		return entity.Float(f), nil
	case script.KStr:
		s, _ := v.AsStr()
		return entity.Str(s), nil
	case script.KBool:
		b, _ := v.AsBool()
		return entity.Bool(b), nil
	case script.KNull:
		return entity.Null(), nil
	}
	return entity.Null(), fmt.Errorf("script: cannot store %s in a table cell", v.Kind())
}
