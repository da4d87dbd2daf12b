package query

import (
	"fmt"
	"sort"

	"gamedb/internal/entity"
)

// Scan produces every row of a table as tuples named "<alias>.<col>",
// with a leading "<alias>.id" column. A nil cols selects all columns.
type Scan struct {
	table  *entity.Table
	alias  string
	cols   []string
	desc   *Desc
	colIdx []int
	cursor int
	closed bool
	buf    []Tuple
}

// NewScan scans all columns of t under its own name as alias.
func NewScan(t *entity.Table) *Scan { return NewScanAs(t, t.Name(), nil) }

// NewScanAs scans selected columns (nil = all) of t under an alias,
// enabling self-joins.
func NewScanAs(t *entity.Table, alias string, cols []string) *Scan {
	if cols == nil {
		for _, c := range t.Schema().Cols() {
			cols = append(cols, c.Name)
		}
	}
	names := []string{alias + ".id"}
	for _, c := range cols {
		names = append(names, alias+"."+c)
	}
	return &Scan{table: t, alias: alias, cols: cols, desc: MustDesc(names...)}
}

// Desc implements Op.
func (s *Scan) Desc() *Desc { return s.desc }

// Open implements Op.
func (s *Scan) Open() error {
	s.cursor = 0
	s.closed = false
	s.colIdx = s.colIdx[:0]
	for _, c := range s.cols {
		i, ok := s.table.Schema().Col(c)
		if !ok {
			return fmt.Errorf("query: scan of %q: no column %q", s.table.Name(), c)
		}
		s.colIdx = append(s.colIdx, i)
	}
	return nil
}

// Next implements Op.
func (s *Scan) Next() ([]Tuple, error) {
	if s.closed {
		return nil, ErrClosed
	}
	n := s.table.Len()
	if s.cursor >= n {
		return nil, nil
	}
	end := s.cursor + batchSize
	if end > n {
		end = n
	}
	s.buf = s.buf[:0]
	for r := s.cursor; r < end; r++ {
		t := make(Tuple, 0, len(s.colIdx)+1)
		t = append(t, entity.Int(int64(s.table.IDAt(r))))
		for _, ci := range s.colIdx {
			t = append(t, s.table.ValueAt(ci, r))
		}
		s.buf = append(s.buf, t)
	}
	s.cursor = end
	return s.buf, nil
}

// Close implements Op.
func (s *Scan) Close() error {
	s.closed = true
	return nil
}

// Filter passes through tuples satisfying a boolean expression.
type Filter struct {
	in   Op
	pred Expr
	buf  []Tuple
}

// NewFilter wraps in with predicate pred.
func NewFilter(in Op, pred Expr) *Filter { return &Filter{in: in, pred: pred} }

// Desc implements Op.
func (f *Filter) Desc() *Desc { return f.in.Desc() }

// Open implements Op.
func (f *Filter) Open() error {
	if err := f.in.Open(); err != nil {
		return err
	}
	return f.pred.Bind(f.in.Desc())
}

// Next implements Op.
func (f *Filter) Next() ([]Tuple, error) {
	for {
		batch, err := f.in.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		f.buf = f.buf[:0]
		for _, t := range batch {
			ok, err := EvalPred(f.pred, t)
			if err != nil {
				return nil, err
			}
			if ok {
				f.buf = append(f.buf, t)
			}
		}
		if len(f.buf) > 0 {
			return f.buf, nil
		}
	}
}

// Close implements Op.
func (f *Filter) Close() error { return f.in.Close() }

// Project computes named expressions over each input tuple.
type Project struct {
	in    Op
	exprs []Expr
	desc  *Desc
	buf   []Tuple
}

// NewProject projects in through exprs, naming outputs names.
func NewProject(in Op, exprs []Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("query: %d exprs but %d names", len(exprs), len(names))
	}
	d, err := NewDesc(names...)
	if err != nil {
		return nil, err
	}
	return &Project{in: in, exprs: exprs, desc: d}, nil
}

// Desc implements Op.
func (p *Project) Desc() *Desc { return p.desc }

// Open implements Op.
func (p *Project) Open() error {
	if err := p.in.Open(); err != nil {
		return err
	}
	for _, e := range p.exprs {
		if err := e.Bind(p.in.Desc()); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Op.
func (p *Project) Next() ([]Tuple, error) {
	batch, err := p.in.Next()
	if err != nil || batch == nil {
		return nil, err
	}
	p.buf = p.buf[:0]
	for _, t := range batch {
		out := make(Tuple, len(p.exprs))
		for i, e := range p.exprs {
			v, err := e.Eval(t)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		p.buf = append(p.buf, out)
	}
	return p.buf, nil
}

// Close implements Op.
func (p *Project) Close() error { return p.in.Close() }

// Limit passes through the first n tuples.
type Limit struct {
	in   Op
	n    int
	seen int
}

// NewLimit caps in at n tuples.
func NewLimit(in Op, n int) *Limit { return &Limit{in: in, n: n} }

// Desc implements Op.
func (l *Limit) Desc() *Desc { return l.in.Desc() }

// Open implements Op.
func (l *Limit) Open() error {
	l.seen = 0
	return l.in.Open()
}

// Next implements Op.
func (l *Limit) Next() ([]Tuple, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	batch, err := l.in.Next()
	if err != nil || batch == nil {
		return nil, err
	}
	if l.seen+len(batch) > l.n {
		batch = batch[:l.n-l.seen]
	}
	l.seen += len(batch)
	return batch, nil
}

// Close implements Op.
func (l *Limit) Close() error { return l.in.Close() }

// SortKey orders by a named column, optionally descending.
type SortKey struct {
	Col  string
	Desc bool
}

// OrderBy materializes its input and emits it sorted.
type OrderBy struct {
	in     Op
	keys   []SortKey
	rows   []Tuple
	cursor int
}

// NewOrderBy sorts in by keys.
func NewOrderBy(in Op, keys ...SortKey) *OrderBy { return &OrderBy{in: in, keys: keys} }

// Desc implements Op.
func (o *OrderBy) Desc() *Desc { return o.in.Desc() }

// Open implements Op.
func (o *OrderBy) Open() error {
	rows, d, err := Run(o.in)
	if err != nil {
		return err
	}
	idx := make([]int, len(o.keys))
	for i, k := range o.keys {
		ci, ok := d.Col(k.Col)
		if !ok {
			return fmt.Errorf("query: order by unknown column %q", k.Col)
		}
		idx[i] = ci
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range o.keys {
			c := entity.Compare(rows[a][idx[i]], rows[b][idx[i]])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	o.rows = rows
	o.cursor = 0
	return nil
}

// Next implements Op.
func (o *OrderBy) Next() ([]Tuple, error) {
	if o.cursor >= len(o.rows) {
		return nil, nil
	}
	end := o.cursor + batchSize
	if end > len(o.rows) {
		end = len(o.rows)
	}
	out := o.rows[o.cursor:end]
	o.cursor = end
	return out, nil
}

// Close implements Op.
func (o *OrderBy) Close() error {
	o.rows = nil
	return nil
}
