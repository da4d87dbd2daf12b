package replica

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gamedb/internal/metrics"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// The hub model test: a seeded random sequence of SpawnEntity /
// UpdateEntity / DespawnEntity / AddClient / MoveClient / FlushTick,
// checked every tick against refHub — a hub with no cell directory and
// no due index — and against the directory's structural invariants.
// Each tick the hub alone is also re-offered a random subset of its
// entities, unchanged: shard.FeedPump offers every owned row every tick,
// so an offer that changes nothing must ship nothing and leave the due
// index as it was, or the hub drifts from the reference.
//
// refHub keeps a flat log of the tick's events and updates, scans every
// entity's every field at every BeginTick (the full per-tick scan that
// FieldSpec.NextDue promises the due index is equal to), and decides
// what a client receives by geometry alone: subscribed() on the cell of
// each log item and of each entity. Entity ids stay in one varint
// length class, so the messages one cell's population produces on a
// window move are the same size and the reference need not know the
// order they sit in. It samples staleness with the hub's rule — every
// StalenessSample-th message a client is delivered, clients in order — so
// its histogram, reservoir included, is the hub's.

type refEnt struct {
	cell      spatial.CellKey
	cur, sent []float64
	sentTick  []int64
	snap, rem int32
}

type refItem struct {
	cell   spatial.CellKey
	kind   eventKind // for events
	update bool
	other  spatial.CellKey
	class  Class
	bytes  int32
}

// refMsg is one queued message: its size and the tick whose state it
// carries.
type refMsg struct {
	bytes int32
	tick  int64
}

type refConn struct {
	focus, flushed spatial.Vec2
	connected      bool // flushed once: flushed is the window clients hold
	dirty          bool
	aoi            float64
	budget         int
	tier           Tier
	queue          []refMsg
	qBytes         int
	sampleCtr      int

	msgs, bytes, snaps, drops int64
}

type refHub struct {
	cfg   HubConfig
	tick  int64
	ents  map[ID]*refEnt
	log   []refItem
	conns []*refConn
	enc   wire.Enc
	stale metrics.Histogram
}

func newRefHub(cfg HubConfig) *refHub {
	cfg.defaults()
	return &refHub{cfg: cfg, ents: map[ID]*refEnt{}}
}

func (r *refHub) sizes(id ID, vals []float64) (snap, rem int32) {
	r.enc.Reset()
	AppendSnapshotMsg(&r.enc, id, vals)
	snap = int32(r.enc.Len())
	r.enc.Reset()
	AppendRemoveMsg(&r.enc, id)
	return snap, int32(r.enc.Len())
}

func (r *refHub) updateSize(id ID, fi int, v float64) int32 {
	r.enc.Reset()
	AppendUpdateMsg(&r.enc, id, int32(fi), v)
	return int32(r.enc.Len())
}

func (r *refHub) eval(id ID, e *refEnt) {
	for fi, spec := range r.cfg.Specs {
		if spec.ShouldShip(e.cur[fi], e.sent[fi], r.tick, e.sentTick[fi]) {
			e.sent[fi], e.sentTick[fi] = e.cur[fi], r.tick
			r.log = append(r.log, refItem{cell: e.cell, update: true, class: spec.Class, bytes: r.updateSize(id, fi, e.cur[fi])})
		}
	}
}

func (r *refHub) beginTick(tick int64) {
	r.tick = tick
	r.log = r.log[:0]
	ids := make([]ID, 0, len(r.ents))
	for id := range r.ents {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r.eval(id, r.ents[id])
	}
}

// placeable is the reference's whole notion of a stray: a position no
// int32 cell key can hold. The model never draws one that is finite and
// this far out, nor one that would pass the hub's directory cap.
func (r *refHub) placeable(pos spatial.Vec2) bool {
	ok := func(v float64) bool { return math.Abs(v/r.cfg.Cell) < 1<<30 }
	return ok(pos.X) && ok(pos.Y)
}

func (r *refHub) update(id ID, pos spatial.Vec2, vals []float64) {
	if !r.placeable(pos) {
		r.despawn(id)
		return
	}
	k := spatial.CellAt(pos, r.cfg.Cell)
	e, ok := r.ents[id]
	if !ok {
		e = &refEnt{cell: k, cur: slices.Clone(vals), sent: slices.Clone(vals), sentTick: make([]int64, len(vals))}
		for i := range e.sentTick {
			e.sentTick[i] = r.tick
		}
		e.snap, e.rem = r.sizes(id, vals)
		r.ents[id] = e
		r.log = append(r.log, refItem{cell: k, kind: evSpawn, bytes: e.snap})
		return
	}
	if k != e.cell {
		r.log = append(r.log,
			refItem{cell: e.cell, kind: evLeave, other: k, bytes: e.rem},
			refItem{cell: k, kind: evEnter, other: e.cell, bytes: e.snap})
		e.cell = k
	}
	copy(e.cur, vals)
	r.eval(id, e)
}

func (r *refHub) despawn(id ID) {
	if e, ok := r.ents[id]; ok {
		r.log = append(r.log, refItem{cell: e.cell, kind: evDespawn, bytes: e.rem})
		delete(r.ents, id)
	}
}

func (r *refHub) push(c *refConn, bytes int32) {
	c.queue = append(c.queue, refMsg{bytes: bytes, tick: r.tick})
	c.qBytes += int(bytes)
	for c.qBytes > r.cfg.MaxQueue && len(c.queue) > 0 {
		c.qBytes -= int(c.queue[0].bytes)
		c.queue = c.queue[1:]
		c.drops++
	}
}

func (r *refHub) flush() {
	for _, c := range r.conns {
		r.flushConn(c)
	}
}

// cmpCells is the cover's row-major order as a three-way comparison.
func cmpCells(a, b spatial.CellKey) int {
	return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
}

func (r *refHub) flushConn(c *refConn) {
	sees := func(focus spatial.Vec2, k spatial.CellKey) bool { return subscribed(focus, c.aoi, r.cfg.Cell, k) }

	// Window move: every entity, by its cell, against the window the
	// client held and the one it holds now.
	var fresh []spatial.CellKey
	if c.dirty {
		type resident struct {
			cell      spatial.CellKey
			snap, rem int32
		}
		var all []resident
		for _, e := range r.ents {
			all = append(all, resident{e.cell, e.snap, e.rem})
		}
		slices.SortFunc(all, func(a, b resident) int { return cmpCells(a.cell, b.cell) })
		for _, e := range all {
			was, now := c.connected && sees(c.flushed, e.cell), sees(c.focus, e.cell)
			switch {
			case was && !now:
				r.push(c, e.rem)
			case now && !was:
				r.push(c, e.snap)
				c.snaps++
				fresh = append(fresh, e.cell)
			}
		}
		// A newly covered cell is fresh whether or not anyone lives
		// there now: an entity that left it this tick must not replay.
		for _, it := range r.log {
			if sees(c.focus, it.cell) && !(c.connected && sees(c.flushed, it.cell)) {
				fresh = append(fresh, it.cell)
			}
		}
		c.flushed, c.connected, c.dirty = c.focus, true, false
	}

	// The tick's traffic: cells in cover order, a cell's events before
	// its updates, each list in intake order.
	var mine []refItem
	for _, it := range r.log {
		if sees(c.focus, it.cell) && !slices.Contains(fresh, it.cell) {
			mine = append(mine, it)
		}
	}
	slices.SortStableFunc(mine, func(a, b refItem) int {
		if c := cmpCells(a.cell, b.cell); c != 0 || a.update == b.update {
			return c
		}
		if b.update {
			return -1
		}
		return 1
	})
	for _, it := range mine {
		switch {
		case it.update:
			if it.class == Cosmetic && c.tier != TierExact {
				continue
			}
			if it.class == Coarse && c.tier == TierCosmetic && r.tick%r.cfg.CoarseThinning != 0 {
				continue
			}
			r.push(c, it.bytes)
		case it.kind == evSpawn:
			r.push(c, it.bytes)
			c.snaps++
		case it.kind == evDespawn:
			r.push(c, it.bytes)
		case it.kind == evEnter:
			if !sees(c.focus, it.other) {
				r.push(c, it.bytes)
				c.snaps++
			}
		case it.kind == evLeave:
			if !sees(c.focus, it.other) {
				r.push(c, it.bytes)
			}
		}
	}

	budget := c.budget
	if budget <= 0 {
		budget = r.cfg.ByteBudget
	}
	for len(c.queue) > 0 && budget > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		c.qBytes -= int(m.bytes)
		budget -= int(m.bytes)
		c.msgs++
		c.bytes += int64(m.bytes)
		if c.sampleCtr++; c.sampleCtr == r.cfg.StalenessSample {
			c.sampleCtr = 0
			r.stale.Record(float64(r.tick - m.tick))
		}
	}
	if c.qBytes > r.cfg.DegradeAt && c.tier < TierCosmetic {
		c.tier++
	} else if c.qBytes < r.cfg.UpgradeAt && c.tier > TierExact {
		c.tier--
	}
}

// checkHubInvariants: the directory is a full box under its cap, every
// entity sits in exactly one population at the slot its state names,
// lookups off every edge of the box answer the empty cell, and every
// client's backlog is well formed: sizes positive, QueuedBytes their
// sum, spans in tick order that end exactly at its last message,
// and no delivered prefix longer than what is still queued.
func checkHubInvariants(t *testing.T, h *Hub) {
	t.Helper()
	for _, c := range h.conns {
		if len(c.sums) == 0 {
			if c.qBytes != 0 || c.head != 0 || len(c.spans) != 0 {
				t.Fatalf("client %d: empty backlog with %d bytes queued, head %d, spans %v", c.ID, c.qBytes, c.head, c.spans)
			}
			continue
		}
		q := c.sums[c.head:]
		if len(q) < 2 || int(q[len(q)-1]-q[0]) != c.qBytes || c.head >= len(q)-1 {
			t.Fatalf("client %d: backlog sums %v from head %d, %d bytes queued", c.ID, c.sums, c.head, c.qBytes)
		}
		for i := 1; i < len(q); i++ {
			if q[i] <= q[i-1] {
				t.Fatalf("client %d: backlog sums %v not ascending", c.ID, q)
			}
		}
		sp := c.spans[c.spanHead:]
		if len(sp) == 0 || sp[0].end <= c.head || sp[len(sp)-1].end != len(c.sums)-1 {
			t.Fatalf("client %d: spans %v from %d for messages [%d, %d)", c.ID, c.spans, c.spanHead, c.head, len(c.sums)-1)
		}
		for i := 1; i < len(sp); i++ {
			if sp[i].end <= sp[i-1].end || sp[i].tick < sp[i-1].tick {
				t.Fatalf("client %d: spans %v out of order", c.ID, sp)
			}
		}
	}
	if len(h.dir) != h.dirW*h.dirH || len(h.dir) > maxDirCells {
		t.Fatalf("directory holds %d cells for a %d×%d box (cap %d)", len(h.dir), h.dirW, h.dirH, maxDirCells)
	}
	residents := 0
	for i := range h.dir {
		residents += len(h.dir[i].pop)
	}
	if residents != len(h.ents) {
		t.Fatalf("%d population entries for %d entities", residents, len(h.ents))
	}
	for id, es := range h.ents {
		i, ok := h.index(es.cell)
		if !ok {
			t.Fatalf("entity %d sits in cell %v outside the directory", id, es.cell)
		}
		if pop := h.dir[i].pop; int(es.idx) >= len(pop) || pop[es.idx].id != id {
			t.Fatalf("entity %d claims slot %d of cell %v, population %v", id, es.idx, es.cell, pop)
		}
		if es.cell != spatial.CellAt(es.pos, h.cfg.Cell) {
			t.Fatalf("entity %d at %v filed under cell %v", id, es.pos, es.cell)
		}
	}
	x0, y0, x1, y1 := int32(h.dirX), int32(h.dirY), int32(h.dirX+h.dirW), int32(h.dirY+h.dirH)
	for _, k := range []spatial.CellKey{
		{X: x0 - 1, Y: y0}, {X: x1, Y: y0}, {X: x0, Y: y0 - 1}, {X: x0, Y: y1},
		{X: math.MinInt32, Y: math.MinInt32}, {X: math.MaxInt32, Y: math.MaxInt32},
	} {
		if h.lookup(k) != &h.none {
			t.Fatalf("lookup(%v) outside the box [%d,%d)×[%d,%d) found a cell", k, x0, x1, y0, y1)
		}
	}
	if n := &h.none; n.epoch != 0 || len(n.events)+len(n.updates)+len(n.pop) != 0 {
		t.Fatalf("the empty cell was written: %+v", *n)
	}
}

// sameStaleness compares two staleness histograms on everything a
// report reads: count, sum, max and the tail quantile off the reservoir.
func sameStaleness(a, b *metrics.Histogram) bool {
	return a.Count() == b.Count() && a.Sum() == b.Sum() && a.Max() == b.Max() &&
		a.Quantile(0.99) == b.Quantile(0.99)
}

// runHubModel drives the hub and refHub through one seeded scenario of
// the given length and fails at the first tick they disagree. It
// reports whether the directory grew past each of its four edges.
func runHubModel(t *testing.T, seed int64, cfg HubConfig, ticks int64) (h *Hub, grewAll bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, ref := NewHub(cfg), newRefHub(cfg)
	var conns []*Conn

	// Most positions fall on a 400×400 town, where windows overlap and
	// cells are shared; one in five anywhere within reach, which widens
	// every tick, so they keep landing past each edge of the box the
	// directory has grown to.
	reach := 200.0
	pos := func() spatial.Vec2 {
		r := 200.0
		if rng.Intn(5) == 0 {
			r = reach
		}
		return spatial.Vec2{X: (rng.Float64()*2 - 1) * r, Y: (rng.Float64()*2 - 1) * r}
	}
	strays := []float64{1e12, -1e12, math.NaN(), math.Inf(1), math.Inf(-1)}
	id := func() ID { return ID(200 + rng.Intn(100)) } // two-byte varints
	where := map[ID]spatial.Vec2{}
	held := map[ID][]float64{} // the values last offered for each id in where
	var live []ID
	grewLeft, grewRight, grewUp, grewDown := false, false, false, false

	for tick := int64(1); tick <= ticks; tick++ {
		reach += 25
		h.BeginTick(tick)
		ref.beginTick(tick)
		for op := 0; op < 60; op++ {
			x, y, w, ht := h.dirX, h.dirY, h.dirW, h.dirH
			switch p := rng.Intn(100); {
			case p < 8:
				e := id()
				h.DespawnEntity(e)
				ref.despawn(e)
				delete(where, e)
				delete(held, e)
			case p < 11: // a stray: despawns until a sane position arrives
				e, at := id(), pos()
				if rng.Intn(2) == 0 {
					at.X = strays[rng.Intn(len(strays))]
				} else {
					at.Y = strays[rng.Intn(len(strays))]
				}
				vals := []float64{1, 2, 3}
				h.UpdateEntity(e, at, vals)
				ref.update(e, at, vals)
				delete(where, e)
				delete(held, e)
			default:
				e, at := id(), pos()
				if old, ok := where[e]; ok && p < 60 {
					// Nudge: mostly the same cell, sometimes the next.
					at = spatial.Vec2{X: old.X + rng.Float64()*12 - 6, Y: old.Y + rng.Float64()*12 - 6}
				}
				// hp Exact; x Coarse, drifting under and over epsilon;
				// anim Cosmetic.
				vals := []float64{float64(rng.Intn(3)), math.Round(at.X*2) / 2, float64(rng.Intn(2))}
				if p < 40 {
					h.SpawnEntity(e, at, vals) // re-registers when known
				} else {
					h.UpdateEntity(e, at, vals)
				}
				ref.update(e, at, vals)
				where[e] = at
				held[e] = vals
			}
			if w > 0 {
				grewLeft = grewLeft || h.dirX < x
				grewUp = grewUp || h.dirY < y
				grewRight = grewRight || h.dirX+h.dirW > x+w
				grewDown = grewDown || h.dirY+h.dirH > y+ht
			}
		}
		live = live[:0]
		for e := range where {
			live = append(live, e)
		}
		slices.Sort(live)
		for _, e := range live {
			if rng.Intn(2) == 0 {
				h.UpdateEntity(e, where[e], held[e])
			}
		}
		if len(conns) < 24 && rng.Intn(3) == 0 {
			focus, aoi, budget := pos(), 40+rng.Float64()*60, 0
			if rng.Intn(3) == 0 {
				budget = 25 // throttled: backlog, tiers, drops
			}
			conns = append(conns, h.AddClient(len(conns), focus, aoi, budget))
			ref.conns = append(ref.conns, &refConn{focus: focus, aoi: aoi, budget: budget, dirty: true})
		}
		for i, c := range conns {
			if rng.Intn(4) == 0 {
				focus := pos()
				if rng.Intn(2) == 0 { // a short hop keeps most of the window
					focus = spatial.Vec2{X: c.Focus.X + rng.Float64()*60 - 30, Y: c.Focus.Y + rng.Float64()*60 - 30}
				}
				h.MoveClient(c, focus)
				ref.conns[i].focus, ref.conns[i].dirty = focus, true
			}
		}

		rep := h.FlushTick()
		ref.flush()
		checkHubInvariants(t, h)
		if h.Entities() != len(ref.ents) {
			t.Fatalf("seed %d tick %d: hub holds %d entities, reference %d", seed, tick, h.Entities(), len(ref.ents))
		}
		var msgs, bytes int64
		for i, c := range conns {
			rc := ref.conns[i]
			if c.Msgs != rc.msgs || c.Bytes != rc.bytes || c.Snapshots != rc.snaps || c.Drops != rc.drops ||
				c.CurrentTier() != rc.tier || c.QueuedBytes() != rc.qBytes {
				t.Fatalf("seed %d tick %d client %d: hub msgs=%d bytes=%d snaps=%d drops=%d tier=%v queued=%d, reference msgs=%d bytes=%d snaps=%d drops=%d tier=%v queued=%d",
					seed, tick, i, c.Msgs, c.Bytes, c.Snapshots, c.Drops, c.CurrentTier(), c.QueuedBytes(),
					rc.msgs, rc.bytes, rc.snaps, rc.drops, rc.tier, rc.qBytes)
			}
			msgs += c.Msgs
			bytes += c.Bytes
		}
		if h.MsgsTotal.Load() != msgs || h.BytesTotal.Load() != bytes || rep.Tick != tick {
			t.Fatalf("seed %d tick %d: hub totals %d msgs %d bytes, clients sum to %d / %d",
				seed, tick, h.MsgsTotal.Load(), h.BytesTotal.Load(), msgs, bytes)
		}
		if !sameStaleness(&h.Staleness, &ref.stale) {
			t.Fatalf("seed %d tick %d: hub staleness count=%d sum=%v max=%v p99=%v, reference count=%d sum=%v max=%v p99=%v",
				seed, tick, h.Staleness.Count(), h.Staleness.Sum(), h.Staleness.Max(), h.Staleness.Quantile(0.99),
				ref.stale.Count(), ref.stale.Sum(), ref.stale.Max(), ref.stale.Quantile(0.99))
		}
	}
	return h, grewLeft && grewRight && grewUp && grewDown
}

func TestHubModel(t *testing.T) {
	cfg := HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 120, MaxQueue: 1200}
	for seed := int64(1); seed <= 12; seed++ {
		h, grewAll := runHubModel(t, seed, cfg, 120)
		if !grewAll {
			t.Fatalf("seed %d: the directory did not grow past all four edges", seed)
		}
		if h.StrayTotal.Load() == 0 || h.DropTotal.Load() == 0 || h.DegradeTotal.Load() == 0 ||
			h.SnapshotTotal.Load() == 0 || h.Staleness.Max() == 0 {
			t.Fatalf("seed %d: scenario too gentle: strays=%d drops=%d degrades=%d snapshots=%d max staleness=%v", seed,
				h.StrayTotal.Load(), h.DropTotal.Load(), h.DegradeTotal.Load(), h.SnapshotTotal.Load(), h.Staleness.Max())
		}
	}
}

// FuzzHubModel runs short model scenarios over the hub's delivery knobs:
// budgets from one byte (every drain cuts after the first message) to
// two MTUs, backlog caps from one byte up, every sampling rate and
// thinning period, so budget cuts and drops land at every offset inside
// a run.
func FuzzHubModel(f *testing.F) {
	f.Add(int64(1), uint16(120), uint16(1200), uint8(16), uint8(4))
	f.Add(int64(2), uint16(1), uint16(0), uint8(1), uint8(1))
	f.Add(int64(3), uint16(2999), uint16(40), uint8(3), uint8(2))
	f.Add(int64(4), uint16(37), uint16(301), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, budget, maxQueue uint16, sample, thinning uint8) {
		cfg := HubConfig{
			Specs: hubSpecs(), Cell: 32,
			ByteBudget:      1 + int(budget)%3000,
			MaxQueue:        int(maxQueue), // 0: the default, 32 budgets
			StalenessSample: int(sample % 64),
			CoarseThinning:  int64(thinning % 8),
		}
		runHubModel(t, seed, cfg, 30)
	})
}
