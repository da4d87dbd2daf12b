package world

import (
	"encoding/json"
	"fmt"
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// snapshotDoc is the JSON image of a world's persistent state. Scripts,
// triggers and archetypes are content, not state — they reload from the
// pack, exactly as a real game reloads code and data after a crash.
type snapshotDoc struct {
	Tick      int64                `json:"tick"`
	NextID    entity.ID            `json:"next_id"`
	Tables    []tableDoc           `json:"tables"`
	Behaviors map[entity.ID]string `json:"behaviors"`
	// Ghosts lists the rows that are read-only mirrors of entities
	// owned by another shard; restoring must re-mark them or a shard
	// world would claim its neighbors' entities as its own.
	Ghosts []entity.ID `json:"ghosts,omitempty"`
	// Routes maps each routed ghost to the shard its writes forward to,
	// so the first tick after a restore forwards them as the snapshotted
	// world did instead of applying them to the mirror.
	Routes map[entity.ID]int `json:"routes,omitempty"`
	// IDStride preserves the shard world's id-allocator residue class;
	// without it a restored shard would hand script spawns ids that
	// collide with other shards. 0 (old snapshots) means 1.
	IDStride entity.ID `json:"id_stride,omitempty"`
}

type tableDoc struct {
	Name string           `json:"name"`
	Cols []colDoc         `json:"cols"`
	IDs  []entity.ID      `json:"ids"`
	Rows [][]entity.Value `json:"rows"`
}

type colDoc struct {
	Name    string       `json:"name"`
	Kind    uint8        `json:"kind"`
	Default entity.Value `json:"default"`
}

// Snapshot serializes the world's persistent state (tick, tables,
// behavior roster, ghost marks and routes) for checkpointing.
func (w *World) Snapshot() ([]byte, error) {
	doc := snapshotDoc{
		Tick:      w.tick,
		NextID:    w.nextID,
		IDStride:  w.idStride,
		Behaviors: make(map[entity.ID]string),
	}
	for i := range w.dir.recs {
		rec := &w.dir.recs[i]
		if rec.tab == nil {
			continue
		}
		if rec.script != "" {
			doc.Behaviors[rec.id] = rec.script
		}
		if rec.owner != noRoute {
			if doc.Routes == nil {
				doc.Routes = make(map[entity.ID]int)
			}
			doc.Routes[rec.id] = int(rec.owner)
		}
	}
	if w.dir.ghosts > 0 {
		doc.Ghosts = w.GhostIDs()
	}
	for _, name := range w.tableNames() {
		t := w.tables[name]
		td := tableDoc{Name: name}
		for _, c := range t.Schema().Cols() {
			td.Cols = append(td.Cols, colDoc{Name: c.Name, Kind: uint8(c.Kind), Default: c.Default})
		}
		t.Scan(func(id entity.ID, row []entity.Value) bool {
			td.IDs = append(td.IDs, id)
			cp := make([]entity.Value, len(row))
			copy(cp, row)
			td.Rows = append(td.Rows, cp)
			return true
		})
		doc.Tables = append(doc.Tables, td)
	}
	return json.Marshal(doc)
}

// RosterError reports a snapshot whose behavior roster or ghost list
// names an entity none of its tables holds a row for, or whose route
// list names one that is not a ghost: a mark with no row (a route with
// no mirror) is state no world can carry.
type RosterError struct {
	Roster string // "behaviors", "ghosts" or "routes"
	ID     entity.ID
}

func (e *RosterError) Error() string {
	if e.Roster == "routes" {
		return fmt.Sprintf("world: corrupt snapshot: routes name entity %d, which is not a ghost", e.ID)
	}
	return fmt.Sprintf("world: corrupt snapshot: %s name entity %d, which has no row", e.Roster, e.ID)
}

// Restore replaces the world's persistent state from a snapshot. Loaded
// content (scripts, triggers, archetypes, frames) is retained. A
// snapshot that fails to decode leaves the world untouched; one that
// decodes but is inconsistent (a roster naming no row: *RosterError)
// fails part-way, leaving the world reset to whatever loaded before the
// inconsistency.
func (w *World) Restore(snap []byte) error {
	var doc snapshotDoc
	if err := json.Unmarshal(snap, &doc); err != nil {
		return fmt.Errorf("world: corrupt snapshot: %w", err)
	}
	w.ResetState()
	for _, td := range doc.Tables {
		cols := make([]entity.Column, len(td.Cols))
		for i, c := range td.Cols {
			cols[i] = entity.Column{Name: c.Name, Kind: entity.Kind(c.Kind), Default: c.Default}
		}
		s, err := entity.NewSchema(cols...)
		if err != nil {
			return fmt.Errorf("world: snapshot table %q: %w", td.Name, err)
		}
		t, err := w.CreateTable(td.Name, s)
		if err != nil {
			return err
		}
		if len(td.IDs) != len(td.Rows) {
			return fmt.Errorf("world: snapshot table %q: %d ids, %d rows", td.Name, len(td.IDs), len(td.Rows))
		}
		for i, id := range td.IDs {
			if err := w.InsertRow(id, t.Name(), td.Rows[i]); err != nil {
				return err
			}
		}
	}
	w.tick = doc.Tick
	w.nextID = doc.NextID
	w.idStride = doc.IDStride
	if w.idStride == 0 {
		w.idStride = 1
	}
	// Rosters in id order, so an error names the lowest offender.
	for _, id := range sortedKeys(doc.Behaviors) {
		if !w.SetBehavior(id, doc.Behaviors[id]) {
			return &RosterError{Roster: "behaviors", ID: id}
		}
	}
	for _, id := range doc.Ghosts {
		if !w.SetGhost(id, true) {
			return &RosterError{Roster: "ghosts", ID: id}
		}
	}
	for _, id := range sortedKeys(doc.Routes) {
		if !w.SetGhostRoute(id, doc.Routes[id]) {
			return &RosterError{Roster: "routes", ID: id}
		}
	}
	return nil
}

func sortedKeys[V any](m map[entity.ID]V) []entity.ID {
	ids := make([]entity.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// ResetState clears tables, index and rosters (a crash), keeping loaded
// content. Trigger runtime state — the pending event queue, fired
// counts, the dropped counter — clears too: events posted against the
// pre-crash state must not drain into whatever state comes next.
func (w *World) ResetState() {
	w.tables = make(map[string]*entity.Table)
	w.dir = directory{}
	w.index = spatial.NewGrid(w.cfg.CellSize)
	w.tableList = nil
	w.tick = 0
	w.nextID = 0
	w.trig.Reset()
	w.resetForwarding()
	// The per-worker emission caches are keyed by the pre-reset epoch's
	// table pointers, which no lookup will name again; drop them so the
	// replaced tables are not pinned.
	for _, b := range w.workerBufs {
		clear(b.tinfos)
		b.lastInfo, b.memoTab = nil, nil
	}
}
