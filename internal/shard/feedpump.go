package shard

// FeedPump bridges a cluster's sealed change feeds into a replica
// fan-out hub: the feed's dirty sets name exactly the rows that
// could need client shipping this tick, so the hub's per-tick input is
// O(dirty), not O(entities). Ghost mirrors are derived state and are
// skipped — every entity reaches the hub exactly once, from the shard
// that owns it.

import (
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/world"
)

// FeedPump feeds one cluster's change feeds to one Hub. Construct with
// NewFeedPump, then call Pump after every Step (and once after the
// initial Sync, to publish the seeded population); FlushTick on the hub
// remains the caller's, so it can interleave client movement.
type FeedPump struct {
	cl  *Cluster
	hub *replica.Hub

	ids  []entity.ID
	vals []float64
	seen map[entity.ID]struct{}
	// names and cols are per-call scratch: a feed's table names in
	// sorted order, and the replicated fields' column indices in the
	// table being pushed.
	names []string
	cols  []int
}

// NewFeedPump wires g — a *Cluster, in-process or over TCP, or the
// *Runtime wrapping one — to hub. Build it with Config.ChangeFeed: shard
// worlds record change feeds only then.
func NewFeedPump(g interface{ cluster() *Cluster }, hub *replica.Hub) *FeedPump {
	return &FeedPump{
		cl:   g.cluster(),
		hub:  hub,
		vals: make([]float64, len(hub.Specs())),
		seen: make(map[entity.ID]struct{}),
	}
}

// relevant reports whether a dirty column can change what clients see:
// a replicated field, or a position column (which moves the entity
// across interest cells even when position itself is not replicated).
func (p *FeedPump) relevant(col string) bool {
	if col == "x" || col == "y" {
		return true
	}
	for _, sp := range p.hub.Specs() {
		if sp.Name == col {
			return true
		}
	}
	return false
}

// Pump opens the hub tick at the cluster's current tick and forwards
// the sealed windows: despawns first across all shards (skipping ids
// that merely migrated — still owned somewhere), then per shard the
// spawned ∪ dirtied rows in sorted id order. A tainted window (post-
// Restore) falls back to pushing every owned row.
func (p *FeedPump) Pump() {
	cl, hub := p.cl, p.hub
	hub.BeginTick(cl.Tick())
	n := cl.Shards()
	tainted := false
	for i := 0; i < n; i++ {
		f := cl.ShardWorld(i).SealedFeed()
		if f == nil {
			continue
		}
		if f.Tainted() {
			tainted = true
		}
		for _, tc := range f.Tables() {
			for _, id := range tc.Despawned {
				if cl.Owner(id) >= 0 {
					continue // handoff: the new owner's spawn mark carries it
				}
				hub.DespawnEntity(replica.ID(id))
			}
		}
	}
	for i := 0; i < n; i++ {
		w := cl.ShardWorld(i)
		f := w.SealedFeed()
		if f == nil {
			continue
		}
		p.names = p.names[:0]
		for name := range f.Tables() {
			p.names = append(p.names, name)
		}
		slices.Sort(p.names)
		for _, name := range p.names {
			tc := f.Table(name)
			ids := p.ids[:0]
			for _, id := range tc.Spawned {
				if _, dup := p.seen[id]; dup {
					continue
				}
				p.seen[id] = struct{}{}
				ids = append(ids, id)
			}
			if tainted {
				// Cannot trust the dirty sets: push the whole table.
				t, _ := w.Table(name)
				for _, id := range t.IDs() {
					if _, dup := p.seen[id]; dup {
						continue
					}
					p.seen[id] = struct{}{}
					ids = append(ids, id)
				}
			} else {
				for col, set := range tc.Cols {
					if !p.relevant(col) {
						continue
					}
					for id := range set {
						if _, dup := p.seen[id]; dup {
							continue
						}
						p.seen[id] = struct{}{}
						ids = append(ids, id)
					}
				}
			}
			clear(p.seen)
			slices.Sort(ids)
			p.ids = ids
			t, _ := w.Table(name)
			p.pushRows(t, w, ids)
		}
	}
}

// pushRows reads each owned row's position and replicated fields and
// hands them to the hub.
func (p *FeedPump) pushRows(t *entity.Table, w *world.World, ids []entity.ID) {
	if t == nil {
		return
	}
	specs := p.hub.Specs()
	s := t.Schema()
	cols := p.cols[:0]
	for _, sp := range specs {
		ci, ok := s.Col(sp.Name)
		if !ok {
			ci = -1
		}
		cols = append(cols, ci)
	}
	p.cols = cols
	for _, id := range ids {
		if w.IsGhost(id) {
			continue
		}
		r, ok := t.RowIndex(id)
		if !ok {
			continue // dirtied then despawned within the tick
		}
		pos, ok := w.Pos(id)
		if !ok {
			continue
		}
		for fi, ci := range cols {
			if ci < 0 {
				p.vals[fi] = 0
				continue
			}
			v, _ := t.ValueAt(ci, r).AsFloat()
			p.vals[fi] = v
		}
		p.hub.UpdateEntity(replica.ID(id), pos, p.vals)
	}
}
