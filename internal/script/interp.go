package script

import (
	"errors"
	"fmt"
	"math"
)

// ErrFuel reports that a script exceeded its fuel budget — the engine's
// guard against designer scripts that would otherwise stall the frame.
var ErrFuel = errors.New("script: fuel budget exhausted")

// ErrDepth reports call-stack overflow (runaway recursion in full mode).
var ErrDepth = errors.New("script: call depth exceeded")

// Builtin is a host-provided function exposed to scripts.
type Builtin struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 = variadic
	Fn      func(args []Value) (Value, error)
}

// Options configures an interpreter.
type Options struct {
	// Fuel bounds the number of AST nodes evaluated per Run/Call.
	// 0 selects DefaultFuel.
	Fuel int64
	// MaxDepth bounds the call stack. 0 selects DefaultMaxDepth.
	MaxDepth int
	// Builtins are host functions; the stdlib (abs, min, max, floor,
	// sqrt, len, push, log) is always present and host entries with the
	// same name override it.
	Builtins []Builtin
	// Log receives log() output; nil discards it.
	Log func(string)
}

// Defaults for Options.
const (
	DefaultFuel     = 1_000_000
	DefaultMaxDepth = 64
)

// Interp executes a parsed Program: the engine behind gslrun and the
// scripting experiments, and the reference internal/gslplan's plans are
// tested against. The Program is read-only, so any number of Interps
// may run one concurrently; an Interp itself is not safe for concurrent
// use.
type Interp struct {
	prog     *Program
	builtins map[string]Builtin
	fuelCap  int64
	maxDepth int
	log      func(string)

	fuel    int64
	depth   int
	globals *env
}

type env struct {
	vars   map[string]Value
	parent *env
}

func newEnv(parent *env) *env { return &env{vars: make(map[string]Value), parent: parent} }

func (e *env) lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

func (e *env) assign(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

// NewInterp builds an interpreter for prog.
func NewInterp(prog *Program, opts Options) *Interp {
	in := &Interp{
		prog:     prog,
		builtins: make(map[string]Builtin),
		fuelCap:  opts.Fuel,
		maxDepth: opts.MaxDepth,
		log:      opts.Log,
	}
	if in.fuelCap <= 0 {
		in.fuelCap = DefaultFuel
	}
	if in.maxDepth <= 0 {
		in.maxDepth = DefaultMaxDepth
	}
	for _, b := range stdlib() {
		in.builtins[b.Name] = b
	}
	if in.log != nil {
		in.builtins["log"] = Builtin{Name: "log", MinArgs: 1, MaxArgs: -1, Fn: func(args []Value) (Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.String()
			}
			var sb []byte
			for i, p := range parts {
				if i > 0 {
					sb = append(sb, ' ')
				}
				sb = append(sb, p...)
			}
			in.log(string(sb))
			return Null(), nil
		}}
	}
	for _, b := range opts.Builtins {
		in.builtins[b.Name] = b
	}
	in.globals = newEnv(nil)
	return in
}

// FuelUsed reports fuel consumed by the last Run or Call.
func (in *Interp) FuelUsed() int64 { return in.fuelCap - in.fuel }

// Run executes the program's top-level statements in the global scope
// under a fresh fuel budget.
func (in *Interp) Run() error {
	in.fuel = in.fuelCap
	in.depth = 0
	for _, s := range in.prog.Stmts {
		if _, err := in.exec(s, in.globals); err != nil {
			return stripFlow(err)
		}
	}
	return nil
}

// Call invokes a declared function under a fresh fuel budget.
func (in *Interp) Call(name string, args ...Value) (Value, error) {
	in.fuel = in.fuelCap
	in.depth = 0
	return in.call(name, args, 0)
}

// control-flow sentinels.
type breakErr struct{}
type continueErr struct{}
type returnErr struct{ v Value }

func (breakErr) Error() string    { return "break outside loop" }
func (continueErr) Error() string { return "continue outside loop" }
func (returnErr) Error() string   { return "return outside function" }

func stripFlow(err error) error {
	switch err.(type) {
	case breakErr, continueErr, returnErr:
		return fmt.Errorf("script: %s", err.Error())
	default:
		return err
	}
}

func (in *Interp) burn(line int) error {
	in.fuel--
	if in.fuel < 0 {
		return fmt.Errorf("%w (line %d)", ErrFuel, line)
	}
	return nil
}

func (in *Interp) call(name string, args []Value, line int) (Value, error) {
	if b, ok := in.builtins[name]; ok {
		if len(args) < b.MinArgs || (b.MaxArgs >= 0 && len(args) > b.MaxArgs) {
			return Null(), errAt(line, "%s: wrong argument count %d", name, len(args))
		}
		return b.Fn(args)
	}
	fn, ok := in.prog.Fns[name]
	if !ok {
		return Null(), errAt(line, "unknown function %q", name)
	}
	if len(args) != len(fn.Params) {
		return Null(), errAt(line, "%s expects %d args, got %d", name, len(fn.Params), len(args))
	}
	in.depth++
	if in.depth > in.maxDepth {
		in.depth--
		return Null(), fmt.Errorf("%w (line %d)", ErrDepth, line)
	}
	defer func() { in.depth-- }()
	scope := newEnv(in.globals)
	for i, p := range fn.Params {
		scope.vars[p] = args[i]
	}
	_, err := in.execBlock(fn.Body, scope)
	if err != nil {
		if r, ok := err.(returnErr); ok {
			return r.v, nil
		}
		return Null(), err
	}
	return Null(), nil
}

// exec runs one statement. The bool result is unused padding for
// execBlock symmetry; control flow travels via sentinel errors.
func (in *Interp) exec(s Stmt, scope *env) (Value, error) {
	if err := in.burn(s.Line()); err != nil {
		return Null(), err
	}
	switch st := s.(type) {
	case *LetStmt:
		v, err := in.eval(st.E, scope)
		if err != nil {
			return Null(), err
		}
		scope.vars[st.Name] = v
		return Null(), nil
	case *AssignStmt:
		v, err := in.eval(st.E, scope)
		if err != nil {
			return Null(), err
		}
		if !scope.assign(st.Name, v) {
			return Null(), errAt(st.Line(), "assignment to undeclared variable %q", st.Name)
		}
		return Null(), nil
	case *ExprStmt:
		return in.eval(st.E, scope)
	case *Block:
		return in.execBlock(st, newEnv(scope))
	case *IfStmt:
		c, err := in.evalBool(st.Cond, scope)
		if err != nil {
			return Null(), err
		}
		if c {
			return in.execBlock(st.Then, newEnv(scope))
		}
		if st.Else != nil {
			return in.execBlock(st.Else, newEnv(scope))
		}
		return Null(), nil
	case *WhileStmt:
		for {
			c, err := in.evalBool(st.Cond, scope)
			if err != nil {
				return Null(), err
			}
			if !c {
				return Null(), nil
			}
			if err := in.loopBody(st.Body, scope); err != nil {
				if _, isBreak := err.(breakErr); isBreak {
					return Null(), nil
				}
				return Null(), err
			}
		}
	case *ForInStmt:
		seq, err := in.eval(st.Seq, scope)
		if err != nil {
			return Null(), err
		}
		items, ok := seq.AsList()
		if !ok {
			return Null(), errAt(st.Line(), "for-in over %s, want list", seq.Kind())
		}
		for _, item := range items {
			body := newEnv(scope)
			body.vars[st.Var] = item
			if _, err := in.execBlock(st.Body, body); err != nil {
				if _, isBreak := err.(breakErr); isBreak {
					return Null(), nil
				}
				if _, isCont := err.(continueErr); isCont {
					continue
				}
				return Null(), err
			}
			if err := in.burn(st.Line()); err != nil {
				return Null(), err
			}
		}
		return Null(), nil
	case *ReturnStmt:
		v := Null()
		if st.E != nil {
			var err error
			v, err = in.eval(st.E, scope)
			if err != nil {
				return Null(), err
			}
		}
		return Null(), returnErr{v}
	case *BreakStmt:
		return Null(), breakErr{}
	case *ContinueStmt:
		return Null(), continueErr{}
	default:
		return Null(), errAt(s.Line(), "unhandled statement %T", s)
	}
}

// loopBody runs a while-loop body in a fresh scope, translating continue
// into normal completion.
func (in *Interp) loopBody(b *Block, scope *env) error {
	_, err := in.execBlock(b, newEnv(scope))
	if err != nil {
		if _, isCont := err.(continueErr); isCont {
			return nil
		}
		return err
	}
	return nil
}

func (in *Interp) execBlock(b *Block, scope *env) (Value, error) {
	for _, s := range b.Stmts {
		if _, err := in.exec(s, scope); err != nil {
			return Null(), err
		}
	}
	return Null(), nil
}

func (in *Interp) evalBool(e Expr, scope *env) (bool, error) {
	v, err := in.eval(e, scope)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	if !ok {
		return false, errAt(e.Line(), "condition is %s, want bool", v.Kind())
	}
	return b, nil
}

func (in *Interp) eval(e Expr, scope *env) (Value, error) {
	if err := in.burn(e.Line()); err != nil {
		return Null(), err
	}
	switch ex := e.(type) {
	case *IntLit:
		return Int(ex.V), nil
	case *FloatLit:
		return Float(ex.V), nil
	case *StrLit:
		return Str(ex.V), nil
	case *BoolLit:
		return Bool(ex.V), nil
	case *NullLit:
		return Null(), nil
	case *Ident:
		v, ok := scope.lookup(ex.Name)
		if !ok {
			return Null(), errAt(ex.Line(), "undefined variable %q", ex.Name)
		}
		return v, nil
	case *CallExpr:
		args := make([]Value, len(ex.Args))
		for i, a := range ex.Args {
			v, err := in.eval(a, scope)
			if err != nil {
				return Null(), err
			}
			args[i] = v
		}
		return in.call(ex.Name, args, ex.Line())
	case *UnExpr:
		v, err := in.eval(ex.E, scope)
		if err != nil {
			return Null(), err
		}
		if ex.Neg {
			if i, ok := v.AsInt(); ok {
				return Int(-i), nil
			}
			if f, ok := v.AsFloat(); ok {
				return Float(-f), nil
			}
			return Null(), errAt(ex.Line(), "cannot negate %s", v.Kind())
		}
		b, ok := v.AsBool()
		if !ok {
			return Null(), errAt(ex.Line(), "cannot logical-not %s", v.Kind())
		}
		return Bool(!b), nil
	case *BinExpr:
		return in.evalBin(ex, scope)
	default:
		return Null(), errAt(e.Line(), "unhandled expression %T", e)
	}
}

func (in *Interp) evalBin(ex *BinExpr, scope *env) (Value, error) {
	// Short-circuit logic first.
	if ex.Op == OpAnd || ex.Op == OpOr {
		l, err := in.evalBool(ex.L, scope)
		if err != nil {
			return Null(), err
		}
		if ex.Op == OpAnd && !l {
			return Bool(false), nil
		}
		if ex.Op == OpOr && l {
			return Bool(true), nil
		}
		r, err := in.evalBool(ex.R, scope)
		if err != nil {
			return Null(), err
		}
		return Bool(r), nil
	}
	l, err := in.eval(ex.L, scope)
	if err != nil {
		return Null(), err
	}
	r, err := in.eval(ex.R, scope)
	if err != nil {
		return Null(), err
	}
	switch ex.Op {
	case OpEq:
		return Bool(Equal(l, r)), nil
	case OpNe:
		return Bool(!Equal(l, r)), nil
	}
	// String concatenation.
	if ex.Op == OpAdd {
		if ls, ok := l.AsStr(); ok {
			if rs, ok2 := r.AsStr(); ok2 {
				return Str(ls + rs), nil
			}
		}
	}
	// Integer fast path.
	if li, ok := l.AsInt(); ok {
		if ri, ok2 := r.AsInt(); ok2 {
			switch ex.Op {
			case OpAdd:
				return Int(li + ri), nil
			case OpSub:
				return Int(li - ri), nil
			case OpMul:
				return Int(li * ri), nil
			case OpDiv:
				if ri == 0 {
					return Null(), errAt(ex.Line(), "integer division by zero")
				}
				return Int(li / ri), nil
			case OpMod:
				if ri == 0 {
					return Null(), errAt(ex.Line(), "modulo by zero")
				}
				return Int(li % ri), nil
			case OpLt:
				return Bool(li < ri), nil
			case OpLe:
				return Bool(li <= ri), nil
			case OpGt:
				return Bool(li > ri), nil
			case OpGe:
				return Bool(li >= ri), nil
			}
		}
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if ok1 && ok2 {
		switch ex.Op {
		case OpAdd:
			return Float(lf + rf), nil
		case OpSub:
			return Float(lf - rf), nil
		case OpMul:
			return Float(lf * rf), nil
		case OpDiv:
			return Float(lf / rf), nil
		case OpMod:
			return Float(math.Mod(lf, rf)), nil
		case OpLt:
			return Bool(lf < rf), nil
		case OpLe:
			return Bool(lf <= rf), nil
		case OpGt:
			return Bool(lf > rf), nil
		case OpGe:
			return Bool(lf >= rf), nil
		}
	}
	// String ordering.
	if ls, ok := l.AsStr(); ok {
		if rs, ok2 := r.AsStr(); ok2 {
			switch ex.Op {
			case OpLt:
				return Bool(ls < rs), nil
			case OpLe:
				return Bool(ls <= rs), nil
			case OpGt:
				return Bool(ls > rs), nil
			case OpGe:
				return Bool(ls >= rs), nil
			}
		}
	}
	return Null(), errAt(ex.Line(), "invalid operands %s %s %s", l.Kind(), ex.Op, r.Kind())
}

// stdlib returns the always-available builtins.
func stdlib() []Builtin {
	num1 := func(name string, f func(float64) float64) Builtin {
		return Builtin{Name: name, MinArgs: 1, MaxArgs: 1, Fn: func(args []Value) (Value, error) {
			x, ok := args[0].AsFloat()
			if !ok {
				return Null(), fmt.Errorf("script: %s: want number, got %s", name, args[0].Kind())
			}
			return Float(f(x)), nil
		}}
	}
	return []Builtin{
		{Name: "abs", MinArgs: 1, MaxArgs: 1, Fn: func(args []Value) (Value, error) {
			if i, ok := args[0].AsInt(); ok {
				if i < 0 {
					i = -i
				}
				return Int(i), nil
			}
			f, ok := args[0].AsFloat()
			if !ok {
				return Null(), fmt.Errorf("script: abs: want number, got %s", args[0].Kind())
			}
			return Float(math.Abs(f)), nil
		}},
		num1("sqrt", math.Sqrt),
		num1("floor", math.Floor),
		{Name: "min", MinArgs: 2, MaxArgs: 2, Fn: func(args []Value) (Value, error) {
			a, ok1 := args[0].AsFloat()
			b, ok2 := args[1].AsFloat()
			if !ok1 || !ok2 {
				return Null(), fmt.Errorf("script: min: want numbers")
			}
			ia, intA := args[0].AsInt()
			ib, intB := args[1].AsInt()
			if intA && intB {
				if ia < ib {
					return Int(ia), nil
				}
				return Int(ib), nil
			}
			return Float(math.Min(a, b)), nil
		}},
		{Name: "max", MinArgs: 2, MaxArgs: 2, Fn: func(args []Value) (Value, error) {
			a, ok1 := args[0].AsFloat()
			b, ok2 := args[1].AsFloat()
			if !ok1 || !ok2 {
				return Null(), fmt.Errorf("script: max: want numbers")
			}
			ia, intA := args[0].AsInt()
			ib, intB := args[1].AsInt()
			if intA && intB {
				if ia > ib {
					return Int(ia), nil
				}
				return Int(ib), nil
			}
			return Float(math.Max(a, b)), nil
		}},
		{Name: "len", MinArgs: 1, MaxArgs: 1, Fn: func(args []Value) (Value, error) {
			if l, ok := args[0].AsList(); ok {
				return Int(int64(len(l))), nil
			}
			if s, ok := args[0].AsStr(); ok {
				return Int(int64(len(s))), nil
			}
			return Null(), fmt.Errorf("script: len: want list or string, got %s", args[0].Kind())
		}},
		{Name: "push", MinArgs: 2, MaxArgs: 2, Fn: func(args []Value) (Value, error) {
			l, ok := args[0].AsList()
			if !ok {
				return Null(), fmt.Errorf("script: push: want list, got %s", args[0].Kind())
			}
			out := make([]Value, 0, len(l)+1)
			out = append(out, l...)
			out = append(out, args[1])
			return List(out...), nil
		}},
		{Name: "list", MinArgs: 0, MaxArgs: -1, Fn: func(args []Value) (Value, error) {
			out := make([]Value, len(args))
			copy(out, args)
			return List(out...), nil
		}},
	}
}
