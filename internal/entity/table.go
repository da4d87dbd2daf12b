package entity

import (
	"errors"
	"fmt"
)

// ID identifies an entity. IDs are assigned by the world (or the caller)
// and are unique within a table.
type ID uint64

// ChangeKind labels a table mutation for change listeners.
type ChangeKind uint8

// The change kinds delivered to listeners.
const (
	ChangeInsert ChangeKind = iota
	ChangeUpdate
	ChangeDelete
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeInsert:
		return "insert"
	case ChangeUpdate:
		return "update"
	case ChangeDelete:
		return "delete"
	default:
		return "?"
	}
}

// Change describes one mutation. For ChangeUpdate, Col/Old/New identify
// the modified column; for inserts and deletes they are zero.
type Change struct {
	Kind  ChangeKind
	Table string
	ID    ID
	Col   string
	Old   Value
	New   Value
}

// ChangeListener receives table mutations; the world's spatial grid
// subscribes to keep entity positions current.
type ChangeListener func(Change)

// Errors returned by table operations.
var (
	ErrDupID = errors.New("entity: duplicate entity id")
	ErrNoRow = errors.New("entity: no such entity")
	ErrKind  = errors.New("entity: value kind mismatch")
)

// Table stores one component type: a dense column-major collection of
// typed rows keyed by entity ID.
// Column-major storage makes AddColumn/DropColumn O(1)/O(1) slice edits
// plus backfill, which the schema-migration experiments rely on. An id
// finds its row through rowOf, an IDIndex: two array reads for the
// dense ids a world assigns, a map probe only for far ids. Delete
// swaps the last row into the hole and re-points its id; Check
// verifies the index against the rows.
type Table struct {
	name      string
	schema    *Schema
	ids       []ID
	cols      [][]Value // cols[c][row]
	rowOf     IDIndex
	listeners []ChangeListener
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	return &Table{name: name, schema: schema, cols: make([][]Value, schema.Len())}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the current schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.ids) }

// OnChange registers a listener invoked synchronously after each mutation.
func (t *Table) OnChange(fn ChangeListener) { t.listeners = append(t.listeners, fn) }

func (t *Table) notify(c Change) {
	for _, fn := range t.listeners {
		fn(c)
	}
}

// Insert adds a row for id with the given column values; unspecified
// columns take their defaults. It fails if the id exists, a column is
// unknown, or a value kind mismatches.
func (t *Table) Insert(id ID, vals map[string]Value) error {
	if _, exists := t.rowOf.Get(id); exists {
		return fmt.Errorf("%w: %d in %q", ErrDupID, id, t.name)
	}
	row := make([]Value, t.schema.Len())
	for i := range row {
		row[i] = t.schema.ColAt(i).Default
	}
	for name, v := range vals {
		ci, ok := t.schema.Col(name)
		if !ok {
			return fmt.Errorf("%w: %q in %q", ErrNoColumn, name, t.name)
		}
		if v.Kind() != t.schema.ColAt(ci).Kind {
			return fmt.Errorf("%w: column %q wants %s, got %s",
				ErrKind, name, t.schema.ColAt(ci).Kind, v.Kind())
		}
		row[ci] = v
	}
	return t.insertRow(id, row)
}

// InsertRow adds a positional row matching the schema exactly. It is the
// fast path used by bulk loaders and migrations.
func (t *Table) InsertRow(id ID, row []Value) error {
	if _, exists := t.rowOf.Get(id); exists {
		return fmt.Errorf("%w: %d in %q", ErrDupID, id, t.name)
	}
	if len(row) != t.schema.Len() {
		return fmt.Errorf("entity: row width %d != schema width %d", len(row), t.schema.Len())
	}
	for i, v := range row {
		if v.Kind() != t.schema.ColAt(i).Kind {
			return fmt.Errorf("%w: column %q wants %s, got %s",
				ErrKind, t.schema.ColAt(i).Name, t.schema.ColAt(i).Kind, v.Kind())
		}
	}
	// insertRow copies the values into the columns; row stays the caller's.
	return t.insertRow(id, row)
}

func (t *Table) insertRow(id ID, row []Value) error {
	r := len(t.ids)
	t.ids = append(t.ids, id)
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], row[c])
	}
	t.rowOf.Put(id, int32(r))
	t.notify(Change{Kind: ChangeInsert, Table: t.name, ID: id})
	return nil
}

// Delete removes the entity's row using swap-with-last, keeping storage
// dense.
func (t *Table) Delete(id ID) error {
	r, ok := t.rowOf.Get(id)
	if !ok {
		return fmt.Errorf("%w: %d in %q", ErrNoRow, id, t.name)
	}
	last := len(t.ids) - 1
	movedID := t.ids[last]
	t.ids[r] = movedID
	t.ids = t.ids[:last]
	for c := range t.cols {
		t.cols[c][r] = t.cols[c][last]
		t.cols[c] = t.cols[c][:last]
	}
	t.rowOf.Delete(id)
	if movedID != id {
		t.rowOf.Put(movedID, int32(r))
	}
	t.notify(Change{Kind: ChangeDelete, Table: t.name, ID: id})
	return nil
}

// Get returns the value of one column for the entity.
func (t *Table) Get(id ID, col string) (Value, error) {
	r, ok := t.rowOf.Get(id)
	if !ok {
		return Null(), fmt.Errorf("%w: %d in %q", ErrNoRow, id, t.name)
	}
	ci, ok := t.schema.Col(col)
	if !ok {
		return Null(), fmt.Errorf("%w: %q in %q", ErrNoColumn, col, t.name)
	}
	return t.cols[ci][r], nil
}

// MustGet is Get that panics on error, for hot paths with known-valid
// arguments.
func (t *Table) MustGet(id ID, col string) Value {
	v, err := t.Get(id, col)
	if err != nil {
		panic(err)
	}
	return v
}

// Set updates one column of the entity's row and notifies listeners.
func (t *Table) Set(id ID, col string, v Value) error {
	r, ok := t.rowOf.Get(id)
	if !ok {
		return fmt.Errorf("%w: %d in %q", ErrNoRow, id, t.name)
	}
	ci, ok := t.schema.Col(col)
	if !ok {
		return fmt.Errorf("%w: %q in %q", ErrNoColumn, col, t.name)
	}
	if v.Kind() != t.schema.ColAt(ci).Kind {
		return fmt.Errorf("%w: column %q wants %s, got %s",
			ErrKind, col, t.schema.ColAt(ci).Kind, v.Kind())
	}
	old := t.cols[ci][r]
	if old.Equal(v) {
		return nil
	}
	t.cols[ci][r] = v
	t.notify(Change{Kind: ChangeUpdate, Table: t.name, ID: id, Col: col, Old: old, New: v})
	return nil
}

// SetColumnBatch assigns vals[i] to column col of entity ids[i] in one
// columnar pass: the column index and kind resolve once for the whole
// batch instead of once per row. Rows whose id is missing or whose
// value kind mismatches are skipped and counted, not failed — the batch
// is the apply side of the state-effect pipeline, where per-row races
// resolve as conflicts. Writes that leave the stored value unchanged
// are no-ops, exactly like Set.
//
// Unlike Set, the batch does NOT invoke change listeners per row:
// callers maintaining derived state (the world's spatial index) must
// reconcile after the batch — see World.flushMoves, which re-syncs
// positions through spatial.Grid.MoveSlots. It returns the
// number of skipped rows, or an error when the column itself is unknown
// or the slice lengths differ.
func (t *Table) SetColumnBatch(col string, ids []ID, vals []Value) (int, error) {
	skipped, _, err := t.setColumnBatch(col, ids, vals, nil, false)
	return skipped, err
}

// SetColumnBatchRows is SetColumnBatch that additionally appends each
// id's row index to rows (-1 when the write was skipped), so callers
// chaining a row-addressed pass — e.g. a spatial reindex of the same
// ids — can reuse the resolution this batch already paid for. The
// indices are valid only until the next insert or delete on the table.
func (t *Table) SetColumnBatchRows(col string, ids []ID, vals []Value, rows []int) (int, []int, error) {
	return t.setColumnBatch(col, ids, vals, rows, true)
}

func (t *Table) setColumnBatch(col string, ids []ID, vals []Value, rows []int, trackRows bool) (int, []int, error) {
	if len(ids) != len(vals) {
		return 0, rows, fmt.Errorf("entity: batch length mismatch: %d ids, %d values", len(ids), len(vals))
	}
	ci, ok := t.schema.Col(col)
	if !ok {
		return 0, rows, fmt.Errorf("%w: %q in %q", ErrNoColumn, col, t.name)
	}
	kind := t.schema.ColAt(ci).Kind
	column := t.cols[ci]
	skipped := 0
	for i, id := range ids {
		r, has := t.rowOf.Get(id)
		if !has {
			skipped++
			if trackRows {
				rows = append(rows, -1)
			}
			continue
		}
		v := vals[i]
		if v.Kind() != kind {
			skipped++
			if trackRows {
				rows = append(rows, -1)
			}
			continue
		}
		if trackRows {
			rows = append(rows, int(r))
		}
		old := column[r]
		if old.Equal(v) {
			continue
		}
		column[r] = v
	}
	return skipped, rows, nil
}

// AddColumnBatchRows adds deltas[i] to column col of entity ids[i] in
// one columnar pass over a numeric column, appending each id's row
// index to rows (-1 when the delta was skipped) under the same contract
// as SetColumnBatchRows. Deltas apply in slice order, so float
// accumulation is bit-reproducible for a deterministically ordered
// batch. Rows whose id is missing or whose delta cannot coerce to the
// column kind are skipped and counted; a non-numeric column skips every
// row. Like SetColumnBatch, change listeners are not invoked — callers
// reconcile derived state after the batch.
func (t *Table) AddColumnBatchRows(col string, ids []ID, deltas []Value, rows []int) (int, []int, error) {
	if len(ids) != len(deltas) {
		return 0, rows, fmt.Errorf("entity: batch length mismatch: %d ids, %d deltas", len(ids), len(deltas))
	}
	ci, ok := t.schema.Col(col)
	if !ok {
		return 0, rows, fmt.Errorf("%w: %q in %q", ErrNoColumn, col, t.name)
	}
	kind := t.schema.ColAt(ci).Kind
	if kind != KindInt && kind != KindFloat {
		for range ids {
			rows = append(rows, -1)
		}
		return len(ids), rows, nil
	}
	column := t.cols[ci]
	skipped := 0
	for i, id := range ids {
		r, has := t.rowOf.Get(id)
		var v Value
		if has {
			v, has = addDelta(kind, column[r], deltas[i])
		}
		if !has {
			skipped++
			rows = append(rows, -1)
			continue
		}
		rows = append(rows, int(r))
		old := column[r]
		if old.Equal(v) {
			continue
		}
		column[r] = v
	}
	return skipped, rows, nil
}

// addDelta returns old + d for a numeric column of the given kind, or
// false when d cannot coerce to it.
func addDelta(kind Kind, old, d Value) (Value, bool) {
	if kind == KindInt {
		di, ok := d.AsInt()
		return Int(old.Int() + di), ok
	}
	df, ok := d.AsFloat()
	return Float(old.Float() + df), ok
}

// AppendRow appends the entity's row (schema column order) to dst and
// returns the extended slice.
func (t *Table) AppendRow(id ID, dst []Value) ([]Value, error) {
	r, ok := t.rowOf.Get(id)
	if !ok {
		return dst, fmt.Errorf("%w: %d in %q", ErrNoRow, id, t.name)
	}
	for c := range t.cols {
		dst = append(dst, t.cols[c][r])
	}
	return dst, nil
}

// IDs returns a copy of all entity IDs in storage order.
func (t *Table) IDs() []ID {
	out := make([]ID, len(t.ids))
	copy(out, t.ids)
	return out
}

// Scan visits every row in storage order. The row slice is reused between
// calls; copy it to retain. Iteration stops early if fn returns false.
// The table must not be mutated during the scan.
func (t *Table) Scan(fn func(id ID, row []Value) bool) {
	buf := make([]Value, t.schema.Len())
	for r, id := range t.ids {
		for c := range t.cols {
			buf[c] = t.cols[c][r]
		}
		if !fn(id, buf) {
			return
		}
	}
}

// IDAt returns the entity ID in storage row r. The query executor uses
// positional access to avoid per-row map lookups; r must be < Len().
func (t *Table) IDAt(r int) ID { return t.ids[r] }

// RowIndex returns the storage row currently holding id, for positional
// access via ValueAt. Any insert or delete may invalidate the index
// (deletes swap the last row in).
func (t *Table) RowIndex(id ID) (int, bool) {
	r, ok := t.rowOf.Get(id)
	return int(r), ok
}

// Check verifies the table's id index: it holds exactly Len() ids and
// maps every row's id back to that row. It returns the first violation;
// a test and debugging aid, like the world's Check it serves.
func (t *Table) Check() error {
	if n := t.rowOf.Len(); n != len(t.ids) {
		return fmt.Errorf("entity: %q indexes %d ids for %d rows", t.name, n, len(t.ids))
	}
	for r, id := range t.ids {
		if got, ok := t.rowOf.Get(id); !ok || int(got) != r {
			return fmt.Errorf("entity: %q row %d holds id %d, the index maps it to %d (%v)", t.name, r, id, got, ok)
		}
	}
	return nil
}

// ValueAt returns the value at column index c, storage row r, both
// bounds-unchecked beyond slice panics. Pair with Schema().Col for c.
func (t *Table) ValueAt(c, r int) Value { return t.cols[c][r] }

// ColValues returns the raw column slice for col. The slice is owned by
// the table and must not be mutated; it is exposed for set-at-a-time
// operators that process whole columns.
func (t *Table) ColValues(col string) ([]Value, error) {
	ci, ok := t.schema.Col(col)
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", ErrNoColumn, col, t.name)
	}
	return t.cols[ci], nil
}

// AddColumn appends a column, backfilling existing rows with its default.
func (t *Table) AddColumn(c Column) error {
	ns, err := t.schema.WithColumn(c)
	if err != nil {
		return err
	}
	def := ns.ColAt(ns.Len() - 1).Default
	fill := make([]Value, len(t.ids))
	for i := range fill {
		fill[i] = def
	}
	t.schema = ns
	t.cols = append(t.cols, fill)
	return nil
}

// DropColumn removes a column.
func (t *Table) DropColumn(name string) error {
	idx, ok := t.schema.Col(name)
	if !ok {
		return fmt.Errorf("%w: %q in %q", ErrNoColumn, name, t.name)
	}
	ns, err := t.schema.WithoutColumn(name)
	if err != nil {
		return err
	}
	t.schema = ns
	t.cols = append(t.cols[:idx], t.cols[idx+1:]...)
	return nil
}

// RenameColumn renames a column in place.
func (t *Table) RenameColumn(old, new string) error {
	ns, err := t.schema.Renamed(old, new)
	if err != nil {
		return err
	}
	t.schema = ns
	return nil
}
