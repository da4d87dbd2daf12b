package query

import (
	"fmt"
	"math"

	"gamedb/internal/entity"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Supported aggregates.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return "?"
	}
}

// AggSpec is one aggregate column: Func over Expr (nil for count(*)),
// emitted under the name As.
type AggSpec struct {
	Func AggFunc
	Expr Expr
	As   string
}

// maxGroupCols bounds group-by width; game queries group by a handful of
// attributes (faction, zone) at most.
const maxGroupCols = 4

// groupKey is a group's map key: its group-by values in Value.Key form,
// so groups follow Value.Equal.
type groupKey [maxGroupCols]entity.ValueKey

// Aggregate computes grouped aggregates over its input — the paper's
// example of database technology games need ("Aggregates" is literally in
// its keyword list). Output columns are the group-by columns followed by
// one column per AggSpec.
type Aggregate struct {
	in      Op
	groupBy []string
	specs   []AggSpec
	desc    *Desc

	keyIdx []int
	groups map[groupKey]*aggState
	order  []*aggState
	cursor int
	done   bool
	buf    []Tuple
}

type aggState struct {
	key   [maxGroupCols]entity.Value // group-by values of the group's first row
	count []int64
	sumI  []int64
	sumF  []float64
	isInt []bool
	min   []entity.Value
	max   []entity.Value
}

// NewAggregate groups in by groupBy (≤ 4 columns) and computes specs.
func NewAggregate(in Op, groupBy []string, specs []AggSpec) (*Aggregate, error) {
	if len(groupBy) > maxGroupCols {
		return nil, fmt.Errorf("query: at most %d group-by columns, got %d", maxGroupCols, len(groupBy))
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("query: aggregate needs at least one spec")
	}
	names := append([]string{}, groupBy...)
	for _, s := range specs {
		if s.As == "" {
			return nil, fmt.Errorf("query: aggregate spec needs a name")
		}
		names = append(names, s.As)
	}
	d, err := NewDesc(names...)
	if err != nil {
		return nil, err
	}
	return &Aggregate{in: in, groupBy: groupBy, specs: specs, desc: d}, nil
}

// Desc implements Op.
func (a *Aggregate) Desc() *Desc { return a.desc }

// Open implements Op: it drains the input and builds all groups eagerly.
func (a *Aggregate) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	ind := a.in.Desc()
	a.keyIdx = a.keyIdx[:0]
	for _, g := range a.groupBy {
		i, ok := ind.Col(g)
		if !ok {
			return fmt.Errorf("query: group by unknown column %q", g)
		}
		a.keyIdx = append(a.keyIdx, i)
	}
	for _, s := range a.specs {
		if s.Expr == nil {
			if s.Func != AggCount {
				return fmt.Errorf("query: %s requires an expression", s.Func)
			}
			continue
		}
		if err := s.Expr.Bind(ind); err != nil {
			return err
		}
	}
	a.groups = make(map[groupKey]*aggState)
	a.order = a.order[:0]
	a.cursor = 0
	a.done = false
	for {
		batch, err := a.in.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		for _, t := range batch {
			if err := a.absorb(t); err != nil {
				return err
			}
		}
	}
	return a.in.Close()
}

func (a *Aggregate) absorb(t Tuple) error {
	var key groupKey
	for i, ki := range a.keyIdx {
		key[i] = t[ki].Key()
	}
	st, ok := a.groups[key]
	if !ok {
		n := len(a.specs)
		st = &aggState{
			count: make([]int64, n),
			sumI:  make([]int64, n),
			sumF:  make([]float64, n),
			isInt: make([]bool, n),
			min:   make([]entity.Value, n),
			max:   make([]entity.Value, n),
		}
		for i := range st.isInt {
			st.isInt[i] = true
		}
		for i, ki := range a.keyIdx {
			st.key[i] = t[ki]
		}
		a.groups[key] = st
		a.order = append(a.order, st)
	}
	for i, s := range a.specs {
		if s.Expr == nil { // count(*)
			st.count[i]++
			continue
		}
		v, err := s.Expr.Eval(t)
		if err != nil {
			return err
		}
		switch s.Func {
		case AggCount:
			if !v.IsNull() {
				st.count[i]++
			}
		case AggSum, AggAvg:
			if iv, ok := v.AsInt(); ok {
				st.sumI[i] += iv
				st.sumF[i] += float64(iv)
			} else if fv, ok := v.AsFloat(); ok {
				st.isInt[i] = false
				st.sumF[i] += fv
			} else {
				return fmt.Errorf("query: %s over non-numeric %s", s.Func, v.Kind())
			}
			st.count[i]++
		case AggMin:
			if st.count[i] == 0 || numLess(v, st.min[i]) {
				st.min[i] = v
			}
			st.count[i]++
		case AggMax:
			if st.count[i] == 0 || numLess(st.max[i], v) {
				st.max[i] = v
			}
			st.count[i]++
		}
	}
	return nil
}

// numLess compares numerically when both values are numeric, falling back
// to the total order.
func numLess(a, b entity.Value) bool {
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return af < bf
	}
	return entity.Compare(a, b) < 0
}

// Next implements Op.
func (a *Aggregate) Next() ([]Tuple, error) {
	if a.done || a.cursor >= len(a.order) {
		a.done = true
		return nil, nil
	}
	end := a.cursor + batchSize
	if end > len(a.order) {
		end = len(a.order)
	}
	a.buf = a.buf[:0]
	for _, st := range a.order[a.cursor:end] {
		t := make(Tuple, 0, len(a.groupBy)+len(a.specs))
		for i := range a.groupBy {
			t = append(t, st.key[i])
		}
		for i, s := range a.specs {
			t = append(t, finishAgg(s.Func, st, i))
		}
		a.buf = append(a.buf, t)
	}
	a.cursor = end
	return a.buf, nil
}

func finishAgg(f AggFunc, st *aggState, i int) entity.Value {
	switch f {
	case AggCount:
		return entity.Int(st.count[i])
	case AggSum:
		if st.count[i] == 0 {
			return entity.Int(0)
		}
		if st.isInt[i] {
			return entity.Int(st.sumI[i])
		}
		return entity.Float(st.sumF[i])
	case AggAvg:
		if st.count[i] == 0 {
			return entity.Float(math.NaN())
		}
		return entity.Float(st.sumF[i] / float64(st.count[i]))
	case AggMin:
		if st.count[i] == 0 {
			return entity.Null()
		}
		return st.min[i]
	case AggMax:
		if st.count[i] == 0 {
			return entity.Null()
		}
		return st.max[i]
	default:
		return entity.Null()
	}
}

// Close implements Op.
func (a *Aggregate) Close() error {
	a.groups = nil
	a.order = nil
	return nil
}
