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
// behavior roster) for checkpointing.
func (w *World) Snapshot() ([]byte, error) {
	doc := snapshotDoc{
		Tick:      w.tick,
		NextID:    w.nextID,
		IDStride:  w.idStride,
		Behaviors: w.behaviors,
	}
	for id := range w.ghosts {
		doc.Ghosts = append(doc.Ghosts, id)
	}
	slices.Sort(doc.Ghosts)
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

// Restore replaces the world's persistent state from a snapshot. Loaded
// content (scripts, triggers, archetypes, frames) is retained.
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
			if err := t.InsertRow(id, td.Rows[i]); err != nil {
				return err
			}
			w.tableOf[id] = td.Name
		}
	}
	w.tick = doc.Tick
	w.nextID = doc.NextID
	w.idStride = doc.IDStride
	if w.idStride == 0 {
		w.idStride = 1
	}
	for id, s := range doc.Behaviors {
		w.behaviors[id] = s
	}
	for _, id := range doc.Ghosts {
		w.ghosts[id] = true
	}
	return nil
}

// ResetState clears tables, index and rosters (a crash), keeping loaded
// content. Trigger runtime state — the pending event queue, fired
// counts, the dropped counter — clears too: events posted against the
// pre-crash state must not drain into whatever state comes next.
func (w *World) ResetState() {
	w.tables = make(map[string]*entity.Table)
	w.tableOf = make(map[entity.ID]string)
	w.behaviors = make(map[entity.ID]string)
	w.ghosts = make(map[entity.ID]bool)
	w.index = spatial.NewGrid(w.cfg.CellSize)
	w.tableList = nil
	w.tick = 0
	w.nextID = 0
	w.trig.Reset()
	w.resetForwarding()
	// State was replaced wholesale with no per-row marks: the current
	// window can no longer vouch for unmarked rows. Consumers observing
	// a tainted window fall back to full evaluation.
	if w.feed != nil {
		w.feed.Taint()
	}
	// The per-worker emission caches hold (table, schema) pointers from
	// the pre-reset epoch; drop them so the replaced tables are not
	// pinned (entries would otherwise only refresh on a same-name
	// lookup, which may never come).
	for _, b := range w.workerBufs {
		clear(b.tinfos)
	}
}
