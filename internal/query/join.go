package query

import (
	"fmt"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// NLJoin is the nested-loop join: the algebraic equivalent of the
// "every object interacts with every other object" designer script the
// paper warns about. It exists as the Ω(n²) baseline for E1.
type NLJoin struct {
	left, right Op
	pred        Expr
	desc        *Desc
	rightRows   []Tuple
	leftBatch   []Tuple
	li, ri      int
	buf         []Tuple
}

// NewNLJoin joins left × right on pred (pred nil = cross product).
func NewNLJoin(left, right Op, pred Expr) (*NLJoin, error) {
	d, err := left.Desc().Concat(right.Desc())
	if err != nil {
		return nil, err
	}
	return &NLJoin{left: left, right: right, pred: pred, desc: d}, nil
}

// Desc implements Op.
func (j *NLJoin) Desc() *Desc { return j.desc }

// Open implements Op.
func (j *NLJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	rows, _, err := Run(j.right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.leftBatch = nil
	j.li, j.ri = 0, 0
	if j.pred != nil {
		return j.pred.Bind(j.desc)
	}
	return nil
}

// Next implements Op.
func (j *NLJoin) Next() ([]Tuple, error) {
	j.buf = j.buf[:0]
	for {
		if j.leftBatch == nil || j.li >= len(j.leftBatch) {
			batch, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if batch == nil {
				if len(j.buf) > 0 {
					return j.buf, nil
				}
				return nil, nil
			}
			// Copy: the combined tuples outlive the producer's batch.
			j.leftBatch = append(j.leftBatch[:0], batch...)
			j.li = 0
			j.ri = 0
		}
		for j.li < len(j.leftBatch) {
			lt := j.leftBatch[j.li]
			for j.ri < len(j.rightRows) {
				rt := j.rightRows[j.ri]
				j.ri++
				combined := make(Tuple, 0, len(lt)+len(rt))
				combined = append(combined, lt...)
				combined = append(combined, rt...)
				if j.pred != nil {
					ok, err := EvalPred(j.pred, combined)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				j.buf = append(j.buf, combined)
				if len(j.buf) >= batchSize {
					return j.buf, nil
				}
			}
			j.ri = 0
			j.li++
		}
		j.leftBatch = nil
		if len(j.buf) >= batchSize {
			return j.buf, nil
		}
	}
}

// Close implements Op.
func (j *NLJoin) Close() error {
	j.rightRows = nil
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// HashJoin is the classic equi-join: build a hash table on the right
// input's key, probe with the left.
type HashJoin struct {
	left, right       Op
	leftKey, rightKey string
	desc              *Desc
	table             map[entity.ValueKey][]Tuple
	leftKeyIdx        int
	buf               []Tuple
}

// NewHashJoin equi-joins left and right on leftKey = rightKey.
func NewHashJoin(left, right Op, leftKey, rightKey string) (*HashJoin, error) {
	d, err := left.Desc().Concat(right.Desc())
	if err != nil {
		return nil, err
	}
	return &HashJoin{left: left, right: right, leftKey: leftKey, rightKey: rightKey, desc: d}, nil
}

// Desc implements Op.
func (j *HashJoin) Desc() *Desc { return j.desc }

// Open implements Op.
func (j *HashJoin) Open() error {
	ki, ok := j.left.Desc().Col(j.leftKey)
	if !ok {
		return fmt.Errorf("query: hash join: unknown left key %q", j.leftKey)
	}
	j.leftKeyIdx = ki
	rki, ok := j.right.Desc().Col(j.rightKey)
	if !ok {
		return fmt.Errorf("query: hash join: unknown right key %q", j.rightKey)
	}
	rows, _, err := Run(j.right)
	if err != nil {
		return err
	}
	j.table = make(map[entity.ValueKey][]Tuple, len(rows))
	for _, t := range rows {
		k := t[rki].Key()
		j.table[k] = append(j.table[k], t)
	}
	return j.left.Open()
}

// Next implements Op.
func (j *HashJoin) Next() ([]Tuple, error) {
	for {
		batch, err := j.left.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		j.buf = j.buf[:0]
		for _, lt := range batch {
			for _, rt := range j.table[lt[j.leftKeyIdx].Key()] {
				combined := make(Tuple, 0, len(lt)+len(rt))
				combined = append(combined, lt...)
				combined = append(combined, rt...)
				j.buf = append(j.buf, combined)
			}
		}
		if len(j.buf) > 0 {
			return j.buf, nil
		}
	}
}

// Close implements Op.
func (j *HashJoin) Close() error {
	j.table = nil
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// BandJoin is the spatial distance join: emit left×right pairs whose
// positions lie within radius. It builds a uniform grid over the right
// input and probes it per left tuple — the indexed fix for Ω(n²)
// interaction scripts and the direct analogue of DB band/theta joins the
// paper draws.
type BandJoin struct {
	left, right    Op
	lx, ly, rx, ry string
	radius         float64
	desc           *Desc
	grid           *spatial.Grid
	rightRows      []Tuple
	lxi, lyi       int
	buf            []Tuple
}

// NewBandJoin joins tuples with dist((lx,ly),(rx,ry)) ≤ radius.
func NewBandJoin(left, right Op, lx, ly, rx, ry string, radius float64) (*BandJoin, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("query: band join radius must be positive, got %v", radius)
	}
	d, err := left.Desc().Concat(right.Desc())
	if err != nil {
		return nil, err
	}
	return &BandJoin{left: left, right: right, lx: lx, ly: ly, rx: rx, ry: ry,
		radius: radius, desc: d}, nil
}

// Desc implements Op.
func (j *BandJoin) Desc() *Desc { return j.desc }

func tupleXY(t Tuple, xi, yi int) (spatial.Vec2, error) {
	x, ok1 := t[xi].AsFloat()
	y, ok2 := t[yi].AsFloat()
	if !ok1 || !ok2 {
		return spatial.Vec2{}, fmt.Errorf("query: band join: non-numeric position (%s,%s)",
			t[xi].Kind(), t[yi].Kind())
	}
	return spatial.Vec2{X: x, Y: y}, nil
}

// Open implements Op.
func (j *BandJoin) Open() error {
	var ok bool
	if j.lxi, ok = j.left.Desc().Col(j.lx); !ok {
		return fmt.Errorf("query: band join: unknown column %q", j.lx)
	}
	if j.lyi, ok = j.left.Desc().Col(j.ly); !ok {
		return fmt.Errorf("query: band join: unknown column %q", j.ly)
	}
	rxi, ok := j.right.Desc().Col(j.rx)
	if !ok {
		return fmt.Errorf("query: band join: unknown column %q", j.rx)
	}
	ryi, ok := j.right.Desc().Col(j.ry)
	if !ok {
		return fmt.Errorf("query: band join: unknown column %q", j.ry)
	}
	rows, _, err := Run(j.right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.grid = spatial.NewGrid(j.radius)
	for i, t := range rows {
		p, err := tupleXY(t, rxi, ryi)
		if err != nil {
			return err
		}
		j.grid.Insert(spatial.ID(i), p)
	}
	return j.left.Open()
}

// Next implements Op.
func (j *BandJoin) Next() ([]Tuple, error) {
	for {
		batch, err := j.left.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		j.buf = j.buf[:0]
		for _, lt := range batch {
			p, err := tupleXY(lt, j.lxi, j.lyi)
			if err != nil {
				return nil, err
			}
			var inner error
			j.grid.QueryCircle(p, j.radius, func(id spatial.ID, _ spatial.Vec2) bool {
				rt := j.rightRows[id]
				combined := make(Tuple, 0, len(lt)+len(rt))
				combined = append(combined, lt...)
				combined = append(combined, rt...)
				j.buf = append(j.buf, combined)
				return true
			})
			if inner != nil {
				return nil, inner
			}
		}
		if len(j.buf) > 0 {
			return j.buf, nil
		}
	}
}

// Close implements Op.
func (j *BandJoin) Close() error {
	j.grid = nil
	j.rightRows = nil
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
