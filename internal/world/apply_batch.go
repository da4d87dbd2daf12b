package world

// The columnar apply path: the set-oriented execution the declarative
// model promises (Sowell et al., "From Declarative Languages to
// Declarative Processing in Computer Games"). Rather than walk the
// merged effect sequence row-at-a-time — each record paying a table
// lookup, a column lookup, a kind check and a change-notification
// sweep — the apply groups the merged records by (table, column) and
// writes each group through one batch call that resolves everything
// once. Position changes are not chased through per-row change
// notifications either: every entity whose x/y changed is accumulated
// during the group passes and the spatial grid is re-synced by a single
// MoveSlots flush.
//
// Determinism is inherited, not re-established: groups form in merged
// (source id, source order) order and preserve it per (entity, column),
// assignments still apply before deltas, and deltas still sum in merged
// order — so the result is bit-identical to a row-at-a-time walk of the
// same sequence for any Shards × Workers combination (the lines such a
// walk recorded on the chaos pack are run "rowapply" in
// testdata/interpreter_goldens.txt). The one permitted divergence is
// spatial cell-bucket ordering, which no hashed state observes.

import (
	"math"
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// colBatch accumulates one (table, column) group of the merged effect
// sequence. The ids/vals slices persist across ticks on the World's
// scratch lists, so steady-state apply allocates nothing.
type colBatch struct {
	tab *entity.Table
	col string
	// pos marks the x/y column of a spatially indexed table: applying
	// this group dirties the grid, so the flush pass must visit it.
	pos  bool
	ids  []entity.ID
	vals []entity.Value
	// slots[i] is ids[i]'s grid slot, kept for position groups only;
	// flushMoves hands it to the grid with the final position.
	slots []int32
	// rows[i] is the row the batch write resolved ids[i] to, -1 when the
	// write was skipped; flushMoves reads positions through it.
	rows []int
}

// resetBatches empties the group list while keeping the per-group
// slice capacity. It runs at the END of each apply (not the start) so
// table pointers clear as soon as the groups are consumed — a table
// dropped by ResetState/Restore is never pinned between ticks.
func resetBatches(bs []colBatch) []colBatch {
	for i := range bs {
		bs[i].tab = nil
		bs[i].ids = bs[i].ids[:0]
		bs[i].vals = bs[i].vals[:0]
		bs[i].slots = bs[i].slots[:0]
		bs[i].rows = bs[i].rows[:0]
	}
	return bs[:0]
}

// batchFor returns the group for (tab, col), appending a new one in
// first-seen order. The live column set of one tick's writes is single
// digits, so a linear scan beats a map and allocates nothing.
func batchFor(bs *[]colBatch, tab *entity.Table, col string) *colBatch {
	b := *bs
	for i := range b {
		if b[i].tab == tab && b[i].col == col {
			return &b[i]
		}
	}
	if len(b) < cap(b) {
		b = b[:len(b)+1]
	} else {
		b = append(b, colBatch{})
	}
	g := &b[len(b)-1]
	g.tab, g.col = tab, col
	g.pos = (col == "x" || col == "y") && isSpatial(tab.Schema())
	g.ids, g.vals, g.slots = g.ids[:0], g.vals[:0], g.slots[:0]
	*bs = b
	return g
}

// applyAssignColumnar is the assignment and delta apply: one grouping
// sweep over the merged sequence that also integrates the physics list,
// one SetColumnBatchRows per written (table, column), one
// AddColumnBatchRows per delta'd (table, column), one MoveSlots flush.
// Conflicts count per record: a record whose target cannot resolve,
// whose entity is unknown, or whose value is skipped inside the batch
// counts exactly one conflict.
func (w *World) applyAssignColumnar(merged []Effect, resolve func(entity.ID) (entity.ID, bool), conflicts *int) {
	// One-entry target → directory record memo: the merged sequence
	// sorts by source entity and behaviors overwhelmingly target self,
	// so consecutive records repeat the same lookup. The record yields
	// the table and the grid slot at once.
	var memoID entity.ID
	var memoTab *entity.Table
	var memoSlot int32
	memoOK := false
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectSet && e.Kind != EffectAdd {
			continue
		}
		w.integrate(e.Src)
		id, ok := resolve(e.Target)
		if !ok {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		if !memoOK || id != memoID {
			rec := w.dir.find(id)
			if rec == nil {
				*conflicts++
				w.noteConflict(e.Src)
				continue
			}
			memoID, memoTab, memoSlot, memoOK = id, rec.tab, rec.slot, true
		}
		var g *colBatch
		if e.Kind == EffectSet {
			g = batchFor(&w.setBatches, memoTab, e.Col)
		} else {
			g = batchFor(&w.addBatches, memoTab, e.Col)
		}
		g.ids = append(g.ids, id)
		g.vals = append(g.vals, e.Val)
		if g.pos {
			g.slots = append(g.slots, memoSlot)
		}
	}
	w.integrate(math.MaxUint64)

	// Assignments first, then deltas over the post-assignment values —
	// the order a row-at-a-time walk would take. Batch-level skips count in
	// the aggregate conflict tally only: the batch entry points report
	// how many records skipped, not which, so per-unit profiling
	// attribution covers the per-record sites above instead.
	w.writeBatches(w.setBatches, (*entity.Table).SetColumnBatchRows, conflicts)
	w.writeBatches(w.addBatches, (*entity.Table).AddColumnBatchRows, conflicts)
	w.flushMoves()
	w.setBatches = resetBatches(w.setBatches)
	w.addBatches = resetBatches(w.addBatches)
}

// integrate appends the velocity step of every physics-list entity
// below id to its table's x and y add groups, advancing the cursor. The
// grouping sweep calls it before each record of source id and once at
// the end, so an entity's step lands after every write from a lower
// source and after its own invocation's, and before any from a higher
// source: deltas sum per (entity, column) in exactly that order.
// Velocities are read before any assignment is written, so a behavior
// setting its own vx integrates the tick-start one. Only an axis whose
// velocity is != 0 moves (a NaN does), and the step is rounded to
// float64 on its own so no target fuses it into the add. The first
// apply after the query phase, the behavior phase's, consumes the list;
// every later apply finds the cursor at its end.
func (w *World) integrate(below entity.ID) {
	dt := w.cfg.TickDT
	for ; w.physNext < len(w.physList) && w.physList[w.physNext].id < below; w.physNext++ {
		p := w.physList[w.physNext]
		pt := &w.physTabs[p.tab]
		r, _ := pt.tab.RowIndex(p.id)
		vx := pt.tab.ValueAt(pt.vx, r).Float()
		vy := pt.tab.ValueAt(pt.vy, r).Float()
		if vx != 0 {
			addStep(batchFor(&w.addBatches, pt.tab, "x"), p, float64(vx*dt))
		}
		if vy != 0 {
			addStep(batchFor(&w.addBatches, pt.tab, "y"), p, float64(vy*dt))
		}
	}
}

// addStep appends one entity's velocity step to a position add group.
func addStep(g *colBatch, p physRef, d float64) {
	g.ids = append(g.ids, p.id)
	g.vals = append(g.vals, entity.Float(d))
	g.slots = append(g.slots, p.slot)
}

// writeBatches writes every group through one batch entry point, keeping
// the row index each id resolved to (-1 when skipped) for flushMoves.
func (w *World) writeBatches(bs []colBatch, write func(*entity.Table, string, []entity.ID, []entity.Value, []int) (int, []int, error), conflicts *int) {
	for i := range bs {
		g := &bs[i]
		skipped, rows, err := write(g.tab, g.col, g.ids, g.vals, g.rows)
		if err != nil {
			*conflicts += len(g.ids)
			continue
		}
		g.rows = rows
		*conflicts += skipped
	}
}

// flushMoves re-syncs the spatial index after the columnar passes: one
// sweep over the position groups reading each touched entity's final
// (x, y) at the row its batch write resolved, then one grid MoveSlots
// over the slots the grouping pass resolved.
// No insert or delete lands between the writes and the flush, so the
// row indices are still valid. An entity typically sits in several
// position groups (set-x and set-y from move_toward, add-x and add-y
// from physics), so the flush dedupes to one entry per moved entity —
// its first occurrence in group order — by stamping the row with this
// flush's epoch. A skipped write (row -1: a vanished row, a kind
// mismatch) moved nothing and is not flushed; moves to an unchanged
// position are no-ops inside the grid.
func (w *World) flushMoves() {
	w.moveEpoch++
	moves := w.moveBuf[:0]
	collect := func(bs []colBatch) {
		for i := range bs {
			g := &bs[i]
			if !g.pos || len(g.rows) == 0 {
				continue
			}
			seen := w.stampsFor(g.tab)
			xci, yci, _ := spatialCols(g.tab.Schema())
			for j, r := range g.rows {
				if r < 0 || seen[r] == w.moveEpoch {
					continue
				}
				seen[r] = w.moveEpoch
				moves = append(moves, spatial.SlotMove{Slot: g.slots[j], Pos: posAt(g.tab, xci, yci, r)})
			}
		}
	}
	collect(w.setBatches)
	collect(w.addBatches)
	w.moveBuf = moves
	w.index.MoveSlots(moves)
}

// rowStamps is one spatial table's row-indexed flush stamps, kept by
// table name so they survive (harmlessly stale) a ResetState.
type rowStamps struct {
	table string
	seen  []uint64
}

// stampsFor returns tab's stamps, covering every current row. A world
// has a spatial table or two, so a linear scan beats a map.
func (w *World) stampsFor(tab *entity.Table) []uint64 {
	i := slices.IndexFunc(w.moveStamps, func(m rowStamps) bool { return m.table == tab.Name() })
	if i < 0 {
		i = len(w.moveStamps)
		w.moveStamps = append(w.moveStamps, rowStamps{table: tab.Name()})
	}
	m := &w.moveStamps[i]
	if n := tab.Len(); len(m.seen) < n {
		m.seen = make([]uint64, n+n/4)
	}
	return m.seen
}

// posAt reads the indexed position held in row r of a spatial table.
func posAt(t *entity.Table, xci, yci, r int) spatial.Vec2 {
	return spatial.Vec2{X: t.ValueAt(xci, r).Float(), Y: t.ValueAt(yci, r).Float()}
}
