package world

import (
	"fmt"
	"math"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// The entity directory: one id → record map for everything the world
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
// record's index in recs, free recycles the indices of despawned
// records, and ghosts / routes count the marked records.
type directory struct {
	at     map[entity.ID]int32
	recs   []entRec
	free   []int32
	ghosts int
	routes int
}

func newDirectory() directory {
	return directory{at: make(map[entity.ID]int32)}
}

// find returns id's record, nil when the world holds no such entity.
// The pointer is valid until the next add.
func (d *directory) find(id entity.ID) *entRec {
	i, ok := d.at[id]
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
	d.at[id] = i
	return &d.recs[i]
}

// remove drops id's record and its marks.
func (d *directory) remove(id entity.ID) {
	i := d.at[id]
	r := &d.recs[i]
	if r.ghost {
		d.ghosts--
	}
	if r.owner != noRoute {
		d.routes--
	}
	*r = entRec{slot: noSlot, owner: noRoute}
	d.free = append(d.free, i)
	delete(d.at, id)
}

// setGhost marks or unmarks r as a ghost; unmarking drops its route.
func (d *directory) setGhost(r *entRec, ghost bool) {
	if r.ghost == ghost {
		return
	}
	r.ghost = ghost
	if ghost {
		d.ghosts++
		return
	}
	d.ghosts--
	d.setRoute(r, noRoute)
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
//   - every record names exactly one table row, and every row has a
//     record naming its table; the id map and the record list agree;
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
	if rows != len(d.at) {
		return fmt.Errorf("world: %d directory records, %d table rows", len(d.at), rows)
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
		if j, ok := d.at[rec.id]; !ok || j != int32(i) {
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
	return nil
}

// Check verifies the world's internal invariants — today the entity
// directory's (see checkDirectory) — and returns the first violation.
// It walks every row, so it is a test and debugging aid, not a
// per-tick production call.
func (w *World) Check() error { return w.checkDirectory() }

// samePos compares positions bit for bit, so NaN equals itself.
func samePos(a, b spatial.Vec2) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
