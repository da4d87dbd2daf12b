package shard

// FeedPump bridges a cluster's shards into a replica fan-out hub: every
// tick it offers the hub every row the shards own, read off each
// world's ascending owned list. The hub evaluates each offer against
// the last-shipped baseline (replica.FieldSpec.NextDue's contract), so
// an unchanged row ships nothing and registers nothing, and the pump
// needs no record of what changed: spawns, handoffs and the rollbacks
// of a Restore are rows like any other. Ghost mirrors are derived state
// and are not owned — every entity reaches the hub exactly once, from
// the shard that owns it.

import (
	"slices"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/world"
)

// FeedPump feeds one cluster's owned rows to one Hub. Construct with
// NewFeedPump, then call Pump after every Step (and once after the
// initial Sync, to publish the seeded population); FlushTick on the hub
// remains the caller's, so it can interleave client movement.
type FeedPump struct {
	cl  *Cluster
	hub *replica.Hub

	// offers holds this tick's owned entities in push order, one run
	// per (shard, table) in runs; walk and tabs are one shard's owned
	// walk and its tables by name. now is the offered ids ascending, and
	// prev last tick's now, so the ids no shard owns any more are
	// prev \ now.
	offers, walk []world.OwnedPos
	runs         []ownedRun
	tabs         []*entity.Table
	now, prev    []entity.ID
	vals         []float64
	// last is the hub tick Pump opened last (-1 before the first). Hub
	// ticks only count up: a Restore sends the cluster's back, never the
	// hub's.
	last int64
	// cols is per-run scratch: the replicated fields' column indices in
	// the table being pushed.
	cols []int
}

// ownedRun is one table's owned entities on one shard: offers[lo:hi].
type ownedRun struct {
	t      *entity.Table
	lo, hi int
}

// NewFeedPump wires g — a *Cluster, in-process or over TCP, or the
// *Runtime wrapping one — to hub.
func NewFeedPump(g interface{ cluster() *Cluster }, hub *replica.Hub) *FeedPump {
	return &FeedPump{
		cl:   g.cluster(),
		hub:  hub,
		vals: make([]float64, len(hub.Specs())),
		last: -1,
	}
}

// Pump opens the hub tick at the cluster's current tick, despawns every
// id it offered last time that no shard owns now (in ascending id
// order), then offers every owned row: shards in index order, each
// shard's tables by name, ids ascending. After a Restore the cluster's
// tick runs behind the hub's; the hub tick then keeps counting from its
// own, since its due index and staleness are keyed by it.
func (p *FeedPump) Pump() {
	cl, hub := p.cl, p.hub
	p.last = max(cl.Tick(), p.last+1)
	hub.BeginTick(p.last)

	p.offers, p.runs, p.now = p.offers[:0], p.runs[:0], p.now[:0]
	for i := 0; i < cl.Shards(); i++ {
		p.walk = cl.ShardWorld(i).AppendOwnedPos(p.walk[:0])
		p.tabs = p.tabs[:0]
		for k := range p.walk {
			if t := p.walk[k].Table; !slices.Contains(p.tabs, t) {
				p.tabs = append(p.tabs, t)
			}
		}
		slices.SortFunc(p.tabs, func(a, b *entity.Table) int { return strings.Compare(a.Name(), b.Name()) })
		for _, t := range p.tabs {
			lo := len(p.offers)
			for k := range p.walk {
				if p.walk[k].Table == t {
					p.offers = append(p.offers, p.walk[k])
					p.now = append(p.now, p.walk[k].ID)
				}
			}
			p.runs = append(p.runs, ownedRun{t: t, lo: lo, hi: len(p.offers)})
		}
	}
	slices.Sort(p.now)
	j := 0
	for _, id := range p.prev {
		for j < len(p.now) && p.now[j] < id {
			j++
		}
		if j == len(p.now) || p.now[j] != id {
			hub.DespawnEntity(replica.ID(id))
		}
	}
	p.prev, p.now = p.now, p.prev

	for _, r := range p.runs {
		p.pushRows(r.t, p.offers[r.lo:r.hi])
	}
}

// pushRows reads each owned spatial row's replicated fields and hands
// them, with its position, to the hub.
func (p *FeedPump) pushRows(t *entity.Table, offers []world.OwnedPos) {
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
	for k := range offers {
		o := &offers[k]
		if !o.Spatial {
			continue
		}
		r, _ := t.RowIndex(o.ID)
		for fi, ci := range cols {
			if ci < 0 {
				p.vals[fi] = 0
				continue
			}
			v, _ := t.ValueAt(ci, r).AsFloat()
			p.vals[fi] = v
		}
		p.hub.UpdateEntity(replica.ID(o.ID), o.Pos, p.vals)
	}
}
