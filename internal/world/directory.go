package world

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// The entity directory: one id → record index for everything the world
// knows per entity. A record names the entity's table, its slot in the
// world's spatial grid, its behavior and its ghost mark and route, so
// the paths that used to probe four maps (table, behavior, ghost, ghost
// owner) plus the grid's own id map probe once: the query phase once per
// roster entity, the apply once per run of records sharing a target.
//
// Marks live on the record, so an entity without a row cannot carry
// one: SetBehavior, SetGhost and SetGhostRoute report false for an
// unknown id, and Despawn drops every mark with the row.

// entRec is one entity's directory record. A record with a nil tab is
// on the free list.
type entRec struct {
	id  entity.ID
	tab *entity.Table
	// script is the behavior's name ("" when none); beh is its loaded
	// executor, nil when no loaded script of that name has an on_tick.
	script string
	beh    *boundBehavior
	// slot is the entity's grid slot, noSlot for a non-spatial table.
	slot int32
	// owner is the shard a ghost's writes route to, noRoute when none.
	owner int32
	ghost bool
}

const (
	noSlot  = -1
	noRoute = -1
)

// directory is the world's entity directory: at maps an id to its
// record's index in recs (two array reads for any id a world or a shard
// coordinator assigns; see entity.IDIndex), free recycles the indices
// of despawned records, and ghosts / routes count the marked records.
//
// owned lists the entities the world owns (every record but the ghosts)
// ascending by id, each with its record index, so the tick reads its
// behavior roster and physics list off it in order, with no sort and no
// id probe. It is kept incrementally: a new record and an un-ghosted one
// queue in pend, a despawn or a ghost mark leaves its entry stale (the
// record's id or mark no longer matches) and counts in stale, and sync
// folds both in with one merge pass.
type directory struct {
	at     entity.IDIndex
	recs   []entRec
	free   []int32
	ghosts int
	routes int

	owned, spare []ownRef
	pend         []entity.ID
	stale        int
}

// ownRef is one entry of the owned list: an entity and its record index.
type ownRef struct {
	id  entity.ID
	rec int32
}

// find returns id's record, nil when the world holds no such entity.
// The pointer is valid until the next add.
func (d *directory) find(id entity.ID) *entRec {
	i, ok := d.at.Get(id)
	if !ok {
		return nil
	}
	return &d.recs[i]
}

// add records a new entity of table tab at grid slot slot.
func (d *directory) add(id entity.ID, tab *entity.Table, slot int32) *entRec {
	var i int32
	if n := len(d.free); n > 0 {
		i = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		i = int32(len(d.recs))
		d.recs = append(d.recs, entRec{})
	}
	d.recs[i] = entRec{id: id, tab: tab, slot: slot, owner: noRoute}
	d.at.Put(id, i)
	d.pend = append(d.pend, id)
	return &d.recs[i]
}

// remove drops record i, a live record find or at resolved, and its
// marks.
func (d *directory) remove(i int32) {
	r := &d.recs[i]
	d.at.Delete(r.id)
	if r.ghost {
		d.ghosts--
	}
	if r.owner != noRoute {
		d.routes--
	}
	*r = entRec{slot: noSlot, owner: noRoute}
	d.free = append(d.free, i)
	d.stale++
}

// setGhost marks or unmarks r as a ghost; unmarking drops its route.
func (d *directory) setGhost(r *entRec, ghost bool) {
	if r.ghost == ghost {
		return
	}
	r.ghost = ghost
	if ghost {
		d.ghosts++
		d.stale++
		return
	}
	d.ghosts--
	d.setRoute(r, noRoute)
	d.pend = append(d.pend, r.id)
}

// owns reports whether entry o still names an owned entity: its record
// holds the same id and no ghost mark.
func (d *directory) owns(o ownRef) bool {
	r := &d.recs[o.rec]
	return r.tab != nil && r.id == o.id && !r.ghost
}

// sync folds the queued additions and the stale entries into owned.
func (d *directory) sync() {
	if len(d.pend) == 0 && d.stale == 0 {
		return
	}
	d.owned, d.spare = d.merge(d.spare[:0]), d.owned
	d.pend, d.stale = d.pend[:0], 0
}

// merge appends to dst the owned list sync would produce: the entries of
// owned that still hold, merged in id order with the queued ids that name
// an owned entity and are not already listed. It sorts pend in place.
func (d *directory) merge(dst []ownRef) []ownRef {
	slices.Sort(d.pend)
	i := 0
	for k, id := range d.pend {
		if k > 0 && id == d.pend[k-1] {
			continue
		}
		at, ok := d.at.Get(id)
		if !ok || d.recs[at].ghost {
			continue
		}
		for ; i < len(d.owned) && d.owned[i].id < id; i++ {
			if d.owns(d.owned[i]) {
				dst = append(dst, d.owned[i])
			}
		}
		if i < len(d.owned) && d.owned[i].id == id && d.owns(d.owned[i]) {
			continue // listed already: re-added under its old record
		}
		dst = append(dst, ownRef{id: id, rec: at})
	}
	for ; i < len(d.owned); i++ {
		if d.owns(d.owned[i]) {
			dst = append(dst, d.owned[i])
		}
	}
	return dst
}

// setRoute installs (or, with noRoute, removes) r's ghost route.
func (d *directory) setRoute(r *entRec, owner int32) {
	if (r.owner == noRoute) != (owner == noRoute) {
		if owner == noRoute {
			d.routes--
		} else {
			d.routes++
		}
	}
	r.owner = owner
}

// spatialCols returns the x and y column indices of a table with float
// x and y columns; ok is false for any other table.
func spatialCols(s *entity.Schema) (xci, yci int, ok bool) {
	xci, okX := s.Col("x")
	yci, okY := s.Col("y")
	ok = okX && okY && s.ColAt(xci).Kind == entity.KindFloat && s.ColAt(yci).Kind == entity.KindFloat
	return xci, yci, ok
}

// enter records the entity just inserted into t: a directory record,
// and a grid slot at its row's x/y when t is spatial.
func (w *World) enter(id entity.ID, t *entity.Table) *entRec {
	slot := int32(noSlot)
	if xci, yci, ok := spatialCols(t.Schema()); ok {
		r, _ := t.RowIndex(id)
		slot = w.index.InsertSlot(spatial.ID(id), posAt(t, xci, yci, r))
	}
	return w.dir.add(id, t, slot)
}

// bindBehaviors re-resolves every record's behavior executor after
// scripts load, so an entity given a behavior before its script loaded
// runs it.
func (w *World) bindBehaviors() {
	for i := range w.dir.recs {
		if r := &w.dir.recs[i]; r.tab != nil && r.script != "" {
			r.beh = w.scripts[r.script]
		}
	}
}

// checkDirectory verifies the entity directory against the tables, the
// grid and the loaded scripts, returning the first broken invariant:
//
//   - every table's id index maps each row's id back to its row and
//     holds nothing else (entity.Table.Check);
//   - every record names exactly one table row, and every row has a
//     record naming its table; the id index and the record list agree;
//   - a record of a spatial table holds a grid slot whose position is
//     the row's x/y (bit for bit), and the grid holds nothing else; a
//     record of any other table holds none;
//   - a route implies the ghost mark, and once any route is installed
//     (the shard runtime routes every mirror at each barrier) every
//     ghost has one; the ghost and route counts match the marks;
//   - beh is the loaded executor of the record's script.
func (w *World) checkDirectory() error {
	d := &w.dir
	rows, slots := 0, 0
	for _, name := range w.tableNames() {
		t := w.tables[name]
		if err := t.Check(); err != nil {
			return fmt.Errorf("world: %w", err)
		}
		xci, yci, spatialTab := spatialCols(t.Schema())
		for r := 0; r < t.Len(); r++ {
			id := t.IDAt(r)
			rec := d.find(id)
			if rec == nil {
				return fmt.Errorf("world: row %d of %q has no directory record", id, name)
			}
			if rec.tab != t {
				return fmt.Errorf("world: entity %d has a row in %q, its record names %q", id, name, rec.tab.Name())
			}
			rows++
			if !spatialTab {
				if rec.slot != noSlot {
					return fmt.Errorf("world: entity %d of non-spatial %q holds grid slot %d", id, name, rec.slot)
				}
				continue
			}
			if rec.slot == noSlot {
				return fmt.Errorf("world: entity %d of spatial %q holds no grid slot", id, name)
			}
			slots++
			want := posAt(t, xci, yci, r)
			if got := w.index.PosSlot(rec.slot); !samePos(got, want) {
				return fmt.Errorf("world: entity %d: grid slot %d at %v, row at %v", id, rec.slot, got, want)
			}
		}
	}
	if rows != d.at.Len() {
		return fmt.Errorf("world: %d directory records, %d table rows", d.at.Len(), rows)
	}
	if w.index.Len() != slots {
		return fmt.Errorf("world: grid holds %d points, %d spatial records", w.index.Len(), slots)
	}
	ghosts, routes := 0, 0
	for i := range d.recs {
		rec := &d.recs[i]
		if rec.tab == nil {
			continue
		}
		if j, ok := d.at.Get(rec.id); !ok || j != int32(i) {
			return fmt.Errorf("world: record %d of entity %d is not the one its id maps to", i, rec.id)
		}
		if rec.ghost {
			ghosts++
		}
		if rec.owner != noRoute {
			routes++
			if !rec.ghost {
				return fmt.Errorf("world: entity %d routes to shard %d but is not a ghost", rec.id, rec.owner)
			}
		}
		if rec.beh != w.scripts[rec.script] {
			return fmt.Errorf("world: entity %d runs a stale executor for behavior %q", rec.id, rec.script)
		}
	}
	if ghosts != d.ghosts || routes != d.routes {
		return fmt.Errorf("world: %d ghosts and %d routes marked, counts say %d and %d", ghosts, routes, d.ghosts, d.routes)
	}
	if routes > 0 && routes != ghosts {
		return fmt.Errorf("world: %d of %d ghosts have no route", ghosts-routes, ghosts)
	}
	return w.checkOwned()
}

// checkOwned verifies the owned list against the records: its live
// entries ascend by id, and folding in what is queued yields exactly the
// non-ghost records, each under its own record index.
func (w *World) checkOwned() error {
	d := &w.dir
	var last entity.ID
	seen := false
	for _, o := range d.owned {
		if !d.owns(o) {
			continue
		}
		if seen && o.id <= last {
			return fmt.Errorf("world: owned list out of order at entity %d", o.id)
		}
		last, seen = o.id, true
	}
	var want []ownRef
	for i := range d.recs {
		if r := &d.recs[i]; r.tab != nil && !r.ghost {
			want = append(want, ownRef{id: r.id, rec: int32(i)})
		}
	}
	slices.SortFunc(want, func(a, b ownRef) int { return cmp.Compare(a.id, b.id) })
	got := d.merge(nil)
	if len(got) != len(want) {
		return fmt.Errorf("world: owned list holds %d entities, the directory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("world: owned list has entity %d (record %d) where the directory has %d (record %d)", got[i].id, got[i].rec, want[i].id, want[i].rec)
		}
	}
	return nil
}

// Check verifies the world's internal invariants — today the entity
// directory's and the tables' id indexes (see checkDirectory) — and
// returns the first violation.
// It walks every row, so it is a test and debugging aid, not a
// per-tick production call.
func (w *World) Check() error { return w.checkDirectory() }

// samePos compares positions bit for bit, so NaN equals itself.
func samePos(a, b spatial.Vec2) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
