package entity

// ChangeFeed is the per-tick dirty index of a world's apply phase: for
// each table, the set of row ids whose value in a given column changed
// (or may have changed) since the feed was last reset, plus the rows
// inserted and deleted. It is the cheap record the columnar apply path
// leaves behind so a replication consumer — the per-client fan-out —
// can evaluate ship policies over what the tick actually wrote instead
// of rescanning everything that might have been written.
//
// Dirty sets are supersets, never exact: a batched write that left the
// stored value unchanged may still mark its row. Consumers re-check
// values (replica.FieldSpec.ShouldShip compares cur against sent), so a
// superset costs evaluation time, not correctness. The converse
// guarantee is the load-bearing one: every mutation that goes through a
// marking write path IS recorded, so a row absent from the feed is
// bit-identical to its last-observed state.
//
// A ChangeFeed is not synchronized; the world serializes apply-phase
// access exactly as it does for tables.
type ChangeFeed struct {
	tables map[string]*TableChanges
	cells  int
	// tainted marks a feed that can no longer vouch for unmarked rows —
	// a snapshot Restore or ResetState replaced state wholesale without
	// per-row marks. Consumers must fall back to full evaluation for the
	// window that observes a tainted feed.
	tainted bool
}

// TableChanges is one table's slice of a ChangeFeed.
type TableChanges struct {
	// Cols maps a column name to the set of dirty row ids.
	Cols map[string]map[ID]struct{}
	// Spawned and Despawned list this window's row inserts and deletes
	// in occurrence order (an id can appear in both when a row churns
	// within one window).
	Spawned   []ID
	Despawned []ID
}

// NewChangeFeed returns an empty feed.
func NewChangeFeed() *ChangeFeed {
	return &ChangeFeed{tables: make(map[string]*TableChanges)}
}

func (f *ChangeFeed) tableFor(name string) *TableChanges {
	tc, ok := f.tables[name]
	if !ok {
		tc = &TableChanges{Cols: make(map[string]map[ID]struct{})}
		f.tables[name] = tc
	}
	return tc
}

// MarkCell records one (table, col, id) write.
func (f *ChangeFeed) MarkCell(table, col string, id ID) {
	tc := f.tableFor(table)
	set, ok := tc.Cols[col]
	if !ok {
		set = make(map[ID]struct{})
		tc.Cols[col] = set
	}
	if _, dup := set[id]; !dup {
		set[id] = struct{}{}
		f.cells++
	}
}

// MarkCol records a batched column write touching every id in ids —
// the one-call form the columnar apply uses per (table, column) group.
func (f *ChangeFeed) MarkCol(table, col string, ids []ID) {
	if len(ids) == 0 {
		return
	}
	tc := f.tableFor(table)
	set, ok := tc.Cols[col]
	if !ok {
		set = make(map[ID]struct{}, len(ids))
		tc.Cols[col] = set
	}
	for _, id := range ids {
		if _, dup := set[id]; !dup {
			set[id] = struct{}{}
			f.cells++
		}
	}
}

// MarkSpawn records a row insert.
func (f *ChangeFeed) MarkSpawn(table string, id ID) {
	tc := f.tableFor(table)
	tc.Spawned = append(tc.Spawned, id)
}

// MarkDespawn records a row delete.
func (f *ChangeFeed) MarkDespawn(table string, id ID) {
	tc := f.tableFor(table)
	tc.Despawned = append(tc.Despawned, id)
}

// Note folds one change-listener event into the feed: updates mark the
// cell, inserts and deletes mark the row lifecycle. Registering
// feed.Note as a table's ChangeListener captures every row-at-a-time
// write path; batched writes skip listeners by design and mark
// explicitly via MarkCol.
func (f *ChangeFeed) Note(c Change) {
	switch c.Kind {
	case ChangeInsert:
		f.MarkSpawn(c.Table, c.ID)
	case ChangeUpdate:
		f.MarkCell(c.Table, c.Col, c.ID)
	case ChangeDelete:
		f.MarkDespawn(c.Table, c.ID)
	}
}

// Taint marks the feed as unable to vouch for unmarked rows (state was
// replaced wholesale). Reset clears it.
func (f *ChangeFeed) Taint() { f.tainted = true }

// Tainted reports whether the feed's absence-means-unchanged guarantee
// is void for this window.
func (f *ChangeFeed) Tainted() bool { return f.tainted }

// Table returns one table's changes, or nil when the window recorded
// none for it.
func (f *ChangeFeed) Table(name string) *TableChanges { return f.tables[name] }

// Tables exposes the per-table changes for iteration. Callers must not
// mutate the returned map.
func (f *ChangeFeed) Tables() map[string]*TableChanges { return f.tables }

// Dirty returns the dirty id set of (table, col), or nil.
func (f *ChangeFeed) Dirty(table, col string) map[ID]struct{} {
	tc, ok := f.tables[table]
	if !ok {
		return nil
	}
	return tc.Cols[col]
}

// CellCount returns the number of distinct (table, col, id) marks.
func (f *ChangeFeed) CellCount() int { return f.cells }

// Empty reports whether the window recorded nothing (and is untainted).
func (f *ChangeFeed) Empty() bool {
	if f.tainted || f.cells > 0 {
		return false
	}
	for _, tc := range f.tables {
		if len(tc.Spawned) > 0 || len(tc.Despawned) > 0 {
			return false
		}
	}
	return true
}

// Reset empties the feed while keeping map and slice capacity, so a
// per-tick rotate allocates nothing in steady state.
func (f *ChangeFeed) Reset() {
	for _, tc := range f.tables {
		for _, set := range tc.Cols {
			clear(set)
		}
		tc.Spawned = tc.Spawned[:0]
		tc.Despawned = tc.Despawned[:0]
	}
	f.cells = 0
	f.tainted = false
}
