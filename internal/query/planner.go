package query

import (
	"fmt"
	"strings"

	"gamedb/internal/entity"
)

// PlanSelect builds an access path for "select * from t where pred",
// choosing an index the way a database optimizer would:
//
//   - col = const with a hash index on col    → index equality probe
//   - col ⋈ const range with an ordered index → index range probe
//   - anything else                           → full scan
//
// A residual Filter(pred) always tops the access path, so the plan is
// correct even when the index probe is only a narrowing. The returned
// string names the chosen path for plan display and tests.
//
// This is the optimizer-shaped piece of the paper's declarative-
// processing agenda: designers state predicates; the engine picks the
// data structure.
func PlanSelect(t *entity.Table, pred Expr) (Op, string) {
	if pred == nil {
		return NewScan(t), "scan"
	}
	if col, v, ok := eqProbe(t, pred); ok {
		return NewFilter(NewIndexScanEq(t, col, v), pred),
			fmt.Sprintf("index-eq(%s)", col)
	}
	if col, lo, hi, ok := rangeProbe(t, pred); ok {
		return NewFilter(NewIndexScanRange(t, col, lo, hi), pred),
			fmt.Sprintf("index-range(%s)", col)
	}
	return NewFilter(NewScan(t), pred), "scan+filter"
}

// stripAlias reduces "table.col" to "col" when the prefix matches the
// table (the scan's qualified naming).
func stripAlias(t *entity.Table, name string) string {
	prefix := t.Name() + "."
	if strings.HasPrefix(name, prefix) {
		return name[len(prefix):]
	}
	return name
}

// colConst matches Col(c) ⋈ Const or Const ⋈ Col(c), returning the
// unqualified column, the constant, and whether the operands were
// swapped.
func colConst(t *entity.Table, l, r Expr) (string, entity.Value, bool, bool) {
	if c, okC := l.(*colRef); okC {
		if k, okK := r.(constExpr); okK {
			return stripAlias(t, c.name), k.v, false, true
		}
	}
	if c, okC := r.(*colRef); okC {
		if k, okK := l.(constExpr); okK {
			return stripAlias(t, c.name), k.v, true, true
		}
	}
	return "", entity.Null(), false, false
}

// eqProbe recognizes col = const over a hash-indexed column.
func eqProbe(t *entity.Table, pred Expr) (string, entity.Value, bool) {
	b, ok := pred.(*binExpr)
	if !ok || b.kind != OpEq {
		return "", entity.Null(), false
	}
	col, v, _, ok := colConst(t, b.l, b.r)
	if !ok || !t.HasHashIndex(col) {
		return "", entity.Null(), false
	}
	// The index stores exact values; only same-kind probes are safe.
	if ci, has := t.Schema().Col(col); !has || t.Schema().ColAt(ci).Kind != v.Kind() {
		return "", entity.Null(), false
	}
	return col, v, true
}

// rangeProbe recognizes single comparisons and conjunctions of
// comparisons over one ordered-indexed column, extracting [lo, hi]
// bounds (null = open). Strict bounds (<, >) keep the index probe
// inclusive and rely on the residual filter for exactness.
func rangeProbe(t *entity.Table, pred Expr) (string, entity.Value, entity.Value, bool) {
	bounds := map[string][2]entity.Value{}
	if !collectBounds(t, pred, bounds) {
		return "", entity.Null(), entity.Null(), false
	}
	for col, b := range bounds {
		if !t.HasOrderedIndex(col) {
			continue
		}
		ci, has := t.Schema().Col(col)
		if !has {
			continue
		}
		kind := t.Schema().ColAt(ci).Kind
		if (!b[0].IsNull() && b[0].Kind() != kind) || (!b[1].IsNull() && b[1].Kind() != kind) {
			continue
		}
		return col, b[0], b[1], true
	}
	return "", entity.Null(), entity.Null(), false
}

// collectBounds walks And-trees of comparisons, accumulating per-column
// bounds. It returns false for shapes the range prober cannot use.
func collectBounds(t *entity.Table, e Expr, bounds map[string][2]entity.Value) bool {
	b, ok := e.(*binExpr)
	if !ok {
		return false
	}
	switch b.kind {
	case OpAnd:
		return collectBounds(t, b.l, bounds) && collectBounds(t, b.r, bounds)
	case OpLt, OpLe, OpGt, OpGe:
		col, v, swapped, ok := colConst(t, b.l, b.r)
		if !ok {
			return false
		}
		// Normalize to col ⋈ const direction.
		kind := b.kind
		if swapped {
			switch kind {
			case OpLt:
				kind = OpGt
			case OpLe:
				kind = OpGe
			case OpGt:
				kind = OpLt
			case OpGe:
				kind = OpLe
			}
		}
		cur := bounds[col]
		switch kind {
		case OpLt, OpLe: // col ≤ v → upper bound
			if cur[1].IsNull() || entity.Compare(v, cur[1]) < 0 {
				cur[1] = v
			}
		case OpGt, OpGe: // col ≥ v → lower bound
			if cur[0].IsNull() || entity.Compare(v, cur[0]) > 0 {
				cur[0] = v
			}
		}
		bounds[col] = cur
		return true
	case OpEq:
		// Equality folds into a degenerate range.
		col, v, _, ok := colConst(t, b.l, b.r)
		if !ok {
			return false
		}
		bounds[col] = [2]entity.Value{v, v}
		return true
	default:
		return false
	}
}
