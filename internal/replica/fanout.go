package replica

// The outward-facing half of change-feed replication: a Hub fans one
// authoritative world's per-tick deltas out to very many clients (the
// 100k-client regime the paper's MMO discussion targets) with the
// bandwidth levers games actually use:
//
//   - Interest management: clients subscribe to spatial cells covering
//     their area of interest; an update is evaluated once globally and
//     then reaches only the clients whose windows cover its cell.
//   - Delta encoding: per (entity, field) ShouldShip gating against the
//     last-shipped baseline, so unchanged or within-epsilon values cost
//     nothing; only cell entries ship full snapshots.
//   - Tier degradation: a client whose queue outgrows its drain budget
//     is stepped down Exact → Coarse → Cosmetic, shedding cosmetic and
//     thinning coarse traffic while persistent-state (Exact) updates
//     always ship — the paper's "uncontested activity may be out of
//     sync" tier, applied per client under backpressure.
//
// The hub is driven from a shard runtime's sealed change feeds (see
// shard.Config.ChangeFeed): the feed's dirty sets name exactly the
// (table, column, id) cells that could need shipping, so per-tick cost
// is O(dirty + due + clients-touched), never O(entities × clients).
//
// Concurrency contract: BeginTick / Spawn / Update / Despawn /
// MoveClient / AddClient run single-threaded between flushes; FlushTick
// fans per-client work across the worker pool, reading the shared cell
// directory immutably. Per-client streams are independent and every
// pass a flush makes is over a slice in intake order (a cell's events,
// its updates, its population), so two runs of one call sequence agree
// exactly on every Conn's tallies and on every TickReport, whatever the
// pool size.

import (
	"math"
	"slices"

	"gamedb/internal/metrics"
	"gamedb/internal/sched"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// Tier is a client's current service level. TierExact receives every
// class; TierCoarse sheds Cosmetic updates; TierCosmetic additionally
// thins Coarse updates to every CoarseThinning-th tick. Exact-class
// updates ship at every tier: degraded clients lose smoothness, never
// persistent state.
type Tier uint8

// The service levels, best first.
const (
	TierExact Tier = iota
	TierCoarse
	TierCosmetic
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierCoarse:
		return "coarse"
	case TierCosmetic:
		return "cosmetic"
	default:
		return "?"
	}
}

// removeBytes is the modeled wire size of an entity-removal message.
const removeBytes = 6

// HubConfig sizes a Hub. Zero values get workable defaults.
type HubConfig struct {
	// Specs are the replicated fields, ShouldShip-gated per class.
	Specs []FieldSpec
	// Cell is the interest-cell edge length (default 64); client
	// windows and entity updates meet at cell granularity.
	Cell float64
	// ByteBudget is a client's default per-tick drain budget in modeled
	// bytes (default 1500, one MTU per tick).
	ByteBudget int
	// DegradeAt / UpgradeAt are the backlog watermarks (in bytes) that
	// step a client's tier down / back up (defaults 4 × ByteBudget and
	// 1 × ByteBudget).
	DegradeAt int
	UpgradeAt int
	// MaxQueue caps a client's backlog in bytes; beyond it the oldest
	// queued messages drop (default 32 × ByteBudget).
	MaxQueue int
	// CoarseThinning: at TierCosmetic, Coarse updates ship only every
	// this many ticks (default 4).
	CoarseThinning int64
	// StalenessSample records 1 in N delivered messages into the
	// staleness histogram (default 16).
	StalenessSample int
	// WireSizing prices every queued message by wire-encoding it with
	// the internal/wire codec (the shard barrier's frame codec) instead
	// of the fixed modeled constants: varint-length ids and real float
	// payloads, so byte budgets and tier watermarks respond to actual
	// encoded sizes. Sizes depend only on message content and queues
	// fill in intake order, so totals, drains that cut mid-backlog and
	// drops past MaxQueue all repeat exactly, as in the modeled sizing.
	WireSizing bool
	// Pool runs the per-client flush fan-out (default sched.Shared()).
	Pool *sched.Pool
}

func (c *HubConfig) defaults() {
	if c.Cell <= 0 {
		c.Cell = 64
	}
	if c.ByteBudget <= 0 {
		c.ByteBudget = 1500
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 32 * c.ByteBudget
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = 4 * c.ByteBudget
	}
	if c.UpgradeAt <= 0 {
		c.UpgradeAt = c.ByteBudget
	}
	if c.CoarseThinning <= 0 {
		c.CoarseThinning = 4
	}
	if c.StalenessSample <= 0 {
		c.StalenessSample = 16
	}
	if c.Pool == nil {
		c.Pool = sched.Shared()
	}
}

// entState is the hub's authoritative view of one replicated entity:
// current values, the globally last-shipped baseline (shared across
// clients — the hub evaluates each (entity, field) once per tick, not
// once per client), its interest cell and its slot in that cell's
// population.
type entState struct {
	pos      spatial.Vec2
	cell     spatial.CellKey
	idx      int32 // dir[cell].pop[idx] is this entity
	cur      []float64
	sent     []float64
	sentTick []int64
	// due is the earliest tick this entity is registered in dueAt for;
	// a value at or before the hub's tick means nothing is pending.
	due int64
}

// update is one shipped field delta, fanned to the cell's subscribers.
// bytes is its queued size, fixed at creation on the single-threaded
// intake path: wire-encoded under WireSizing, else the modeled constant.
type update struct {
	id    ID
	fi    int32
	class Class
	bytes int32
}

type eventKind uint8

const (
	evSpawn eventKind = iota
	evDespawn
	evEnter // entity moved into this cell; other = the cell it left
	evLeave // entity moved out of this cell; other = the cell it entered
)

// event is one membership change in a cell's per-tick list. bytes as
// in update.
type event struct {
	kind  eventKind
	id    ID
	other spatial.CellKey
	bytes int32
}

// member is one entity of a cell's population with the sizes of the two
// messages a membership change or a window move ships for it: a
// snapshot on the way in, a removal on the way out. Both depend only on
// the id and len(Specs), so they are priced once, when the entity
// spawns, and travel with it from cell to cell.
type member struct {
	id          ID
	snapBytes   int32
	removeBytes int32
}

// cell is one interest cell: this tick's traffic and the resident
// population. events and updates count only while epoch equals the
// hub's; BeginTick empties every cell by advancing that, and cellFor
// truncates a stale cell's lists before the first write of the tick.
type cell struct {
	epoch   uint64
	events  []event
	updates []update
	pop     []member
}

// qmsg is one queued outbound message: modeled size plus the tick whose
// state it carries (staleness = delivery tick − payload tick).
type qmsg struct {
	bytes int32
	tick  int64
}

// Conn is one connected client: a spatial subscription window, a tier,
// and a byte-budgeted FIFO. Fields are owned by the hub; read stats
// between flushes.
type Conn struct {
	ID    int
	Focus spatial.Vec2
	AOI   float64
	// Budget is this client's per-tick drain in bytes (0 = hub default).
	Budget int

	tier       Tier
	cover      []spatial.CellKey
	coverDirty bool
	scratch    []spatial.CellKey
	fresh      []spatial.CellKey

	// queue[qHead:] is the backlog, oldest first. Draining advances
	// qHead instead of re-slicing, so the backing array and its
	// capacity survive from tick to tick.
	queue     []qmsg
	qHead     int
	qBytes    int
	sampleCtr int

	// Delivered message/byte/snapshot/drop tallies, cumulative.
	Msgs      int64
	Bytes     int64
	Snapshots int64
	Drops     int64
}

// CurrentTier returns the client's current service level.
func (c *Conn) CurrentTier() Tier { return c.tier }

// QueuedBytes returns the client's current backlog.
func (c *Conn) QueuedBytes() int { return c.qBytes }

// TickReport summarizes one FlushTick.
type TickReport struct {
	Tick      int64
	Msgs      int64
	Bytes     int64
	Snapshots int64
	Drops     int64
	// Tiers counts clients per service level after this flush.
	Tiers [3]int
}

// maxDirCells caps the cell directory (about 300 MB of empty cells): a
// position that would grow it further is refused, see Hub.StrayTotal.
const maxDirCells = 1 << 22

// Hub fans authoritative per-tick deltas out to subscribed clients.
type Hub struct {
	cfg   HubConfig
	specs []FieldSpec
	tick  int64
	epoch uint64 // advanced by BeginTick; see cell

	ents map[ID]*entState

	// dir is the dense cell directory: row-major over the box of cells
	// [dirX, dirX+dirW) × [dirY, dirY+dirH), which holds every cell an
	// entity has occupied. Only the intake path (cellFor) grows it; the
	// parallel flush reads it through lookup, which answers none — the
	// empty cell, never written — for any key outside the box.
	dir                    []cell
	dirX, dirY, dirW, dirH int
	none                   cell

	// dueAt lists, per future tick, the entities to re-evaluate then;
	// dueFree recycles the lists BeginTick has consumed. dueEvals counts
	// the last BeginTick's evaluations.
	dueAt    map[int64][]ID
	dueFree  [][]ID
	dueEvals int

	conns   []*Conn
	tallies []flushTally // per flush worker, reused

	// MsgsTotal / BytesTotal / SnapshotTotal / DropTotal accumulate
	// across the run; StrayTotal counts positions the hub refused —
	// non-finite, or far enough out to grow the cell directory past its
	// cap — each handled as a despawn until the entity reports a sane
	// position again. Staleness samples delivery delay in ticks;
	// DegradeTotal / UpgradeTotal count tier transitions.
	MsgsTotal     metrics.Counter
	BytesTotal    metrics.Counter
	SnapshotTotal metrics.Counter
	DropTotal     metrics.Counter
	StrayTotal    metrics.Counter
	DegradeTotal  metrics.Counter
	UpgradeTotal  metrics.Counter
	Staleness     metrics.Histogram

	// sizeEnc is the encoder scratch WireSizing prices messages with.
	sizeEnc wire.Enc
}

// updateSize prices one field-update message.
func (h *Hub) updateSize(id ID, fi int32, val float64) int32 {
	if !h.cfg.WireSizing {
		return msgBytes
	}
	h.sizeEnc.Reset()
	AppendUpdateMsg(&h.sizeEnc, id, fi, val)
	return int32(h.sizeEnc.Len())
}

// memberFor prices an entity's snapshot and removal messages.
func (h *Hub) memberFor(id ID, vals []float64) member {
	if !h.cfg.WireSizing {
		return member{id: id, snapBytes: int32(len(h.specs) * snapshotBytesPer), removeBytes: removeBytes}
	}
	m := member{id: id}
	h.sizeEnc.Reset()
	AppendSnapshotMsg(&h.sizeEnc, id, vals)
	m.snapBytes = int32(h.sizeEnc.Len())
	h.sizeEnc.Reset()
	AppendRemoveMsg(&h.sizeEnc, id)
	m.removeBytes = int32(h.sizeEnc.Len())
	return m
}

// NewHub builds a hub replicating cfg.Specs.
func NewHub(cfg HubConfig) *Hub {
	cfg.defaults()
	return &Hub{
		cfg:   cfg,
		specs: cfg.Specs,
		epoch: 1, // none.epoch stays 0: the empty cell is stale forever
		ents:  make(map[ID]*entState),
		dueAt: make(map[int64][]ID),
	}
}

// Specs returns the replicated field specs.
func (h *Hub) Specs() []FieldSpec { return h.specs }

// Clients returns the connected client count.
func (h *Hub) Clients() int { return len(h.conns) }

// Entities returns the replicated entity count.
func (h *Hub) Entities() int { return len(h.ents) }

// AddClient connects a client. Its whole window snapshots on the first
// flush (the cover diff sees every cell as newly entered).
func (h *Hub) AddClient(id int, focus spatial.Vec2, aoi float64, budget int) *Conn {
	c := &Conn{ID: id, Focus: focus, AOI: aoi, Budget: budget, coverDirty: true}
	h.conns = append(h.conns, c)
	return c
}

// MoveClient retargets a client's window; the cover diff at the next
// flush snapshots newly covered cells and drops departed ones.
func (h *Hub) MoveClient(c *Conn, focus spatial.Vec2) {
	c.Focus = focus
	c.coverDirty = true
}

// BeginTick opens a tick: per-cell lists reset and the due index for
// this tick re-evaluates (time-driven Coarse/Cosmetic ships surface
// here without any dirty mark, mirroring the shard reconcile's due
// index).
func (h *Hub) BeginTick(tick int64) {
	h.tick = tick
	h.epoch++
	h.dueEvals = 0
	due, ok := h.dueAt[tick]
	if !ok {
		return
	}
	delete(h.dueAt, tick)
	slices.Sort(due)
	for i, id := range due {
		if i > 0 && due[i-1] == id {
			continue // evaluated just now; a second pass cannot ship
		}
		if es, ok := h.ents[id]; ok {
			h.dueEvals++
			h.evalFields(id, es, h.cellFor(es.cell))
		}
	}
	h.dueFree = append(h.dueFree, due[:0])
}

// SpawnEntity registers (or re-registers) an entity; subscribed clients
// snapshot it. vals must be len(Specs).
func (h *Hub) SpawnEntity(id ID, pos spatial.Vec2, vals []float64) {
	if _, ok := h.ents[id]; ok {
		h.UpdateEntity(id, pos, vals)
		return
	}
	k, c := h.place(pos)
	if c == nil {
		h.StrayTotal.Add(1)
		return
	}
	es := &entState{
		pos:      pos,
		cell:     k,
		cur:      append([]float64(nil), vals...),
		sent:     append([]float64(nil), vals...),
		sentTick: make([]int64, len(vals)),
	}
	for i := range es.sentTick {
		es.sentTick[i] = h.tick
	}
	h.ents[id] = es
	m := h.memberFor(id, vals)
	join(c, es, m)
	c.events = append(c.events, event{kind: evSpawn, id: id, bytes: m.snapBytes})
}

// DespawnEntity removes an entity; subscribed clients get a removal.
func (h *Hub) DespawnEntity(id ID) {
	es, ok := h.ents[id]
	if !ok {
		return
	}
	c := h.cellFor(es.cell)
	m := h.leave(c, es)
	c.events = append(c.events, event{kind: evDespawn, id: id, bytes: m.removeBytes})
	delete(h.ents, id)
}

// UpdateEntity feeds one dirtied entity's current position and values:
// cell transitions become enter/leave events, and each field evaluates
// ShouldShip once against the global baseline (unknown ids spawn). A
// position the hub cannot place (see StrayTotal) despawns the entity.
func (h *Hub) UpdateEntity(id ID, pos spatial.Vec2, vals []float64) {
	es, ok := h.ents[id]
	if !ok {
		h.SpawnEntity(id, pos, vals)
		return
	}
	k, dst := h.place(pos)
	if dst == nil {
		h.StrayTotal.Add(1)
		h.DespawnEntity(id)
		return
	}
	if k != es.cell {
		src := h.cellFor(es.cell) // after place: growing moves every cell
		m := h.leave(src, es)
		src.events = append(src.events, event{kind: evLeave, id: id, other: k, bytes: m.removeBytes})
		dst.events = append(dst.events, event{kind: evEnter, id: id, other: es.cell, bytes: m.snapBytes})
		join(dst, es, m)
		es.cell = k
	}
	es.pos = pos
	copy(es.cur, vals)
	h.evalFields(id, es, dst)
}

// evalFields runs the delta gate for every field of one entity,
// emitting ships into ct, the entity's cell, and registering the entity
// for the earliest tick a declined-but-diverged value comes due. One
// registration serves every pending field: the evaluation it triggers
// registers whatever still pends then, so an entity sits in dueAt once
// per due tick however often it is evaluated in between.
func (h *Hub) evalFields(id ID, es *entState, ct *cell) {
	next, pending := int64(0), false
	for fi, spec := range h.specs {
		cur := es.cur[fi]
		if spec.ShouldShip(cur, es.sent[fi], h.tick, es.sentTick[fi]) {
			es.sent[fi] = cur
			es.sentTick[fi] = h.tick
			ct.updates = append(ct.updates,
				update{id: id, fi: int32(fi), class: spec.Class, bytes: h.updateSize(id, int32(fi), cur)})
			continue
		}
		if cur != es.sent[fi] {
			if due, ok := spec.NextDue(h.tick, es.sentTick[fi]); ok && (!pending || due < next) {
				next, pending = due, true
			}
		}
	}
	if !pending || (es.due > h.tick && es.due <= next) {
		return
	}
	es.due = next
	list, ok := h.dueAt[next]
	if !ok && len(h.dueFree) > 0 {
		list = h.dueFree[len(h.dueFree)-1]
		h.dueFree = h.dueFree[:len(h.dueFree)-1]
	}
	h.dueAt[next] = append(list, id)
}

// place maps a position to its interest cell and that cell's slot in
// the directory, growing the directory to hold it. It returns a nil
// cell for a non-finite position and for one so far out that the
// directory would pass maxDirCells.
func (h *Hub) place(pos spatial.Vec2) (spatial.CellKey, *cell) {
	// Keys are int32 and a NaN fails every comparison.
	const lim = 1 << 30
	if x, y := pos.X/h.cfg.Cell, pos.Y/h.cfg.Cell; !(math.Abs(x) < lim && math.Abs(y) < lim) {
		return spatial.CellKey{}, nil
	}
	k := spatial.CellAt(pos, h.cfg.Cell)
	if _, ok := h.index(k); !ok && !h.grow(k) {
		return k, nil
	}
	return k, h.cellFor(k)
}

// index is the directory's addressing: k's offset in dir, false outside
// the box.
func (h *Hub) index(k spatial.CellKey) (int, bool) {
	x, y := int(k.X)-h.dirX, int(k.Y)-h.dirY
	if uint(x) >= uint(h.dirW) || uint(y) >= uint(h.dirH) {
		return 0, false
	}
	return y*h.dirW + x, true
}

// lookup is the flush's read-only view of cell k.
func (h *Hub) lookup(k spatial.CellKey) *cell {
	if i, ok := h.index(k); ok {
		return &h.dir[i]
	}
	return &h.none
}

// cellFor returns cell k, which is inside the box, ready for this
// tick's traffic. The pointer is good until the directory next grows.
func (h *Hub) cellFor(k spatial.CellKey) *cell {
	i, _ := h.index(k)
	c := &h.dir[i]
	if c.epoch != h.epoch {
		c.epoch = h.epoch
		c.events = c.events[:0]
		c.updates = c.updates[:0]
	}
	return c
}

// grow re-lays the directory over the smallest box holding the old one
// and k, padded on each side that moved by half the old extent (so a
// crowd spreading out re-lays O(log) times), or unpadded when only that
// fits under maxDirCells. It reports false, changing nothing, when not
// even that does.
func (h *Hub) grow(k spatial.CellKey) bool {
	span := func(lo, n, at, pad int) (int, int) {
		hi := lo + n
		if n == 0 {
			lo, hi = at, at+1
		}
		if at < lo {
			lo = at - pad
		}
		if at >= hi {
			hi = at + 1 + pad
		}
		return lo, hi - lo
	}
	x, w := span(h.dirX, h.dirW, int(k.X), max(h.dirW/2, 4))
	y, ht := span(h.dirY, h.dirH, int(k.Y), max(h.dirH/2, 4))
	if w*ht > maxDirCells {
		x, w = span(h.dirX, h.dirW, int(k.X), 0)
		y, ht = span(h.dirY, h.dirH, int(k.Y), 0)
		if w*ht > maxDirCells {
			return false
		}
	}
	dir := make([]cell, w*ht)
	for row := 0; row < h.dirH; row++ {
		copy(dir[(row+h.dirY-y)*w+h.dirX-x:], h.dir[row*h.dirW:(row+1)*h.dirW])
	}
	h.dir, h.dirX, h.dirY, h.dirW, h.dirH = dir, x, y, w, ht
	return true
}

// join appends es to c's population.
func join(c *cell, es *entState, m member) {
	es.idx = int32(len(c.pop))
	c.pop = append(c.pop, m)
}

// leave swap-removes es from c's population and returns its entry.
func (h *Hub) leave(c *cell, es *entState) member {
	m := c.pop[es.idx]
	last := len(c.pop) - 1
	if moved := c.pop[last]; moved.id != m.id {
		c.pop[es.idx] = moved
		h.ents[moved.id].idx = es.idx
	}
	c.pop = c.pop[:last]
	return m
}

// subscribed reports whether a client window covers cell k — the exact
// predicate CellCover uses, so membership tests agree with the cover.
func subscribed(focus spatial.Vec2, aoi, cell float64, k spatial.CellKey) bool {
	return k.Rect(cell).Dist2(focus) <= aoi*aoi
}

// flushTally is one flush worker's running totals.
type flushTally struct {
	stats   flushStats
	tiers   [3]int
	samples []float64
}

// FlushTick fans the tick's accumulated traffic to every client (over
// the worker pool), drains each queue by its byte budget, applies the
// tier watermarks, and reports totals.
func (h *Hub) FlushTick() TickReport {
	rep := TickReport{Tick: h.tick}
	n := len(h.conns)
	if n == 0 {
		return rep
	}
	pool := h.cfg.Pool
	workers := min(pool.Size()+1, n)
	if len(h.tallies) < workers {
		h.tallies = make([]flushTally, workers)
	}
	tallies := h.tallies[:workers]
	chunk := (n + workers - 1) / workers
	pool.Par(workers, func(wi int) {
		tl := &tallies[wi]
		tl.stats, tl.tiers, tl.samples = flushStats{}, [3]int{}, tl.samples[:0]
		for _, c := range h.conns[min(wi*chunk, n):min((wi+1)*chunk, n)] {
			h.flushConn(c, tl)
			tl.tiers[c.tier]++
		}
	})
	for wi := range tallies {
		tl := &tallies[wi]
		rep.Msgs += tl.stats.msgs
		rep.Bytes += tl.stats.bytes
		rep.Snapshots += tl.stats.snaps
		rep.Drops += tl.stats.drops
		for t := 0; t < 3; t++ {
			rep.Tiers[t] += tl.tiers[t]
		}
		h.DegradeTotal.Add(tl.stats.degrades)
		h.UpgradeTotal.Add(tl.stats.upgrades)
		for _, s := range tl.samples {
			h.Staleness.Record(s)
		}
	}
	h.MsgsTotal.Add(rep.Msgs)
	h.BytesTotal.Add(rep.Bytes)
	h.SnapshotTotal.Add(rep.Snapshots)
	h.DropTotal.Add(rep.Drops)
	return rep
}

// flushStats is one client's this-flush tally.
type flushStats struct {
	msgs, bytes, snaps, drops int64
	degrades, upgrades        int64
}

func (a *flushStats) add(b flushStats) {
	a.msgs += b.msgs
	a.bytes += b.bytes
	a.snaps += b.snaps
	a.drops += b.drops
	a.degrades += b.degrades
	a.upgrades += b.upgrades
}

// cellLess orders cell keys row-major, matching CellCover's generation
// order so cover diffs are a merge walk.
func cellLess(a, b spatial.CellKey) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// enqueue appends one message to the client's FIFO, dropping oldest
// messages past the backlog cap.
func (h *Hub) enqueue(c *Conn, bytes int32, fs *flushStats) {
	c.queue = append(c.queue, qmsg{bytes: bytes, tick: h.tick})
	c.qBytes += int(bytes)
	for c.qBytes > h.cfg.MaxQueue && c.qHead < len(c.queue) {
		c.qBytes -= int(c.queue[c.qHead].bytes)
		c.qHead++
		fs.drops++
	}
}

// flushConn runs one client's tick: window maintenance (cover diff →
// snapshots and removals), traffic collection from covered cells under
// the tier filter, then a budgeted FIFO drain and the tier watermarks.
func (h *Hub) flushConn(c *Conn, tl *flushTally) {
	var fs flushStats
	cell := h.cfg.Cell

	// fresh lists this flush's newly covered cells: their end-of-tick
	// population snapshots wholesale below, so their per-tick event and
	// update lists are already baked in and must not replay.
	var fresh []spatial.CellKey
	if c.coverDirty {
		newCover := spatial.CellCover(c.Focus, c.AOI, cell, c.scratch[:0])
		fresh = c.fresh[:0]
		// Merge-walk old vs new cover (both row-major): cells only in
		// the new cover snapshot their population, cells only in the
		// old one queue removals for theirs. Entities in cells left
		// behind are still alive — only this client's window moved.
		i, j := 0, 0
		for i < len(c.cover) || j < len(newCover) {
			switch {
			case j == len(newCover) || (i < len(c.cover) && cellLess(c.cover[i], newCover[j])):
				for _, m := range h.lookup(c.cover[i]).pop {
					h.enqueue(c, m.removeBytes, &fs)
				}
				i++
			case i == len(c.cover) || cellLess(newCover[j], c.cover[i]):
				pop := h.lookup(newCover[j]).pop
				for _, m := range pop {
					h.enqueue(c, m.snapBytes, &fs)
				}
				fs.snaps += int64(len(pop))
				fresh = append(fresh, newCover[j])
				j++
			default:
				i++
				j++
			}
		}
		c.scratch = c.cover
		c.cover = newCover
		c.fresh = fresh
		c.coverDirty = false
	}

	thinCoarse := c.tier == TierCosmetic && h.tick%h.cfg.CoarseThinning != 0
	fn := 0
	for _, k := range c.cover {
		if fn < len(fresh) && fresh[fn] == k {
			// Snapshot this flush: events would double-ship spawns and
			// entries the population snapshot already carries, and
			// updates are baked into the snapshot values.
			fn++
			continue
		}
		ct := h.lookup(k)
		if ct.epoch != h.epoch {
			continue // nothing happened here this tick
		}
		for _, ev := range ct.events {
			switch ev.kind {
			case evSpawn:
				h.enqueue(c, ev.bytes, &fs)
				fs.snaps++
			case evDespawn:
				h.enqueue(c, ev.bytes, &fs)
			case evEnter:
				// Came from a cell this window also covers: already
				// visible, the deltas carry it.
				if !subscribed(c.Focus, c.AOI, cell, ev.other) {
					h.enqueue(c, ev.bytes, &fs)
					fs.snaps++
				}
			case evLeave:
				if !subscribed(c.Focus, c.AOI, cell, ev.other) {
					h.enqueue(c, ev.bytes, &fs)
				}
			}
		}
		for _, u := range ct.updates {
			switch u.class {
			case Cosmetic:
				if c.tier != TierExact {
					continue
				}
			case Coarse:
				if thinCoarse {
					continue
				}
			}
			h.enqueue(c, u.bytes, &fs)
		}
	}

	// Budgeted drain, oldest first; staleness samples the delivery
	// delay in ticks.
	budget := c.Budget
	if budget <= 0 {
		budget = h.cfg.ByteBudget
	}
	q, at := c.queue, c.qHead
	for ; at < len(q) && budget > 0; at++ {
		m := q[at]
		c.qBytes -= int(m.bytes)
		budget -= int(m.bytes)
		fs.msgs++
		fs.bytes += int64(m.bytes)
		if c.sampleCtr++; c.sampleCtr == h.cfg.StalenessSample {
			c.sampleCtr = 0
			tl.samples = append(tl.samples, float64(h.tick-m.tick))
		}
	}
	switch live := len(q) - at; {
	case live == 0:
		at, c.queue = 0, q[:0]
		if cap(q) > 1024 {
			c.queue = nil // a drained backlog gives its array back
		}
	case at >= live:
		// The delivered prefix has outgrown the backlog: slide the
		// backlog down over it, each message moved at most once per
		// message delivered.
		at, c.queue = 0, q[:copy(q, q[at:])]
	}
	c.qHead = at

	if c.qBytes > h.cfg.DegradeAt && c.tier < TierCosmetic {
		c.tier++
		fs.degrades++
	} else if c.qBytes < h.cfg.UpgradeAt && c.tier > TierExact {
		c.tier--
		fs.upgrades++
	}

	c.Msgs += fs.msgs
	c.Bytes += fs.bytes
	c.Snapshots += fs.snaps
	c.Drops += fs.drops
	tl.stats.add(fs)
}
