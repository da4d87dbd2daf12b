package replica

// The outward-facing half of replication: a Hub fans one
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
// The hub is driven by shard.FeedPump, which offers it every row the
// shards own each tick. An offer is evaluated against the entity's
// last-shipped baseline, and the due index re-evaluates declined values
// at the tick they come due, so an unchanged row ships nothing and
// intake costs O(owned rows + due). Intake appends the tick's traffic,
// each record tagged with its cell, to two hub-wide lists: membership
// events and field updates. A flush then runs set-at-a-time: it marks
// every cell with traffic in a bitmap over the directory, groups both
// lists by cell with one stable counting sort each, and seals each
// cell's group into runs — byte prefix sums over the cell's events and
// over its updates under each tier filter. A client then costs
// O(cover rows + cells with traffic in view + backlog spans touched),
// plus the populations a moved window gains or loses: a run is
// delivered, dropped or queued whole by its totals, only the run a
// budget or the backlog cap cuts is binary-searched, and only what the
// budget cannot carry is copied into the client's backlog. Nothing is
// O(entities × clients), nor O(messages) for a client that keeps up.
//
// Concurrency contract: BeginTick / Spawn / Update / Despawn /
// MoveClient / AddClient run single-threaded between flushes; FlushTick
// seals on the calling goroutine, then fans per-client work across the
// worker pool, reading the cell directory and the sealed runs
// immutably. Per-client streams are independent, the grouping is stable
// and every pass a flush makes is over a slice in intake order (a cell's
// group of events, its group of updates, its population), so two runs of
// one call sequence agree exactly on every Conn's tallies and on every
// TickReport, whatever the pool size.

import (
	"math"
	"math/bits"
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

// HubConfig sizes a Hub. Zero values get workable defaults.
type HubConfig struct {
	// Specs are the replicated fields, ShouldShip-gated per class.
	Specs []FieldSpec
	// Cell is the interest-cell edge length (default 64); client
	// windows and entity updates meet at cell granularity.
	Cell float64
	// ByteBudget is a client's default per-tick drain budget in bytes
	// (default 1500, one MTU per tick). Every queued message is priced by
	// wire-encoding it with the internal/wire codec (the shard barrier's
	// frame codec, see wiremsg.go): sizes depend only on message content
	// and queues fill in intake order, so totals, drains that cut
	// mid-backlog and drops past MaxQueue all repeat exactly.
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
	// WireSizing is inert: nothing reads it, and every hub prices its
	// messages by wire encoding. It is still declared only because
	// bench/workloads.go assigns it (ROADMAP 1(g) deletes both together).
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

// update is one shipped field delta, fanned to the subscribers of cell
// at. bytes is its wire-encoded size, fixed at creation on the
// single-threaded intake path. A record names its cell by key, not by
// directory slot: the directory may grow between intake and seal.
type update struct {
	at    spatial.CellKey
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

// event is one membership change in cell at. at and bytes as in update.
type event struct {
	at    spatial.CellKey
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

// cell is one interest cell: its resident population.
type cell struct {
	pop []member
}

// liveCell is a cell with traffic this tick as seal lays it out for the
// flush workers: its events, their run, and runs[top], the run of its
// updates whose class is at most top (every class, no Cosmetic, Exact
// only — the three tier filters).
type liveCell struct {
	events []event
	evs    run
	runs   [3]run
}

// run is a sequence of messages as their cumulative sizes behind a base,
// so messages [i, j) cost sums[j]−sums[i], and their total. A stream
// delivers, drops and queues whole runs by their totals; only a run the
// budget or the backlog cap cuts is searched.
type run struct {
	sums  []int64
	bytes int64
}

// sumsRun makes a run of sums.
func sumsRun(sums []int64) run { return run{sums, sums[len(sums)-1] - sums[0]} }

// take consumes the front of the run: the fewest messages whose bytes
// reach x, or the whole run when they cannot. It returns how many
// messages it took and their bytes; bytes < x means the run ran out
// first. A budget drain and a backlog cap both cut this way: a message
// goes while the bytes before it are under the budget, and the oldest go
// until the overflow is covered.
func (r *run) take(x int64) (int, int64) {
	k, b := len(r.sums)-1, r.bytes
	if k <= 0 {
		return 0, 0
	}
	if b >= x {
		k, _ = slices.BinarySearch(r.sums, r.sums[0]+x)
		b = r.sums[k] - r.sums[0]
	}
	r.sums, r.bytes = r.sums[k:], r.bytes-b
	return k, b
}

// coverRow is one row of a client's cover: cells x0..x1 of row y.
type coverRow struct{ y, x0, x1 int32 }

// span is a stretch of a client's backlog carrying one tick's state
// (staleness = delivery tick − tick): the messages below end not in an
// earlier span.
type span struct {
	end  int
	tick int64
}

// Conn is one connected client: a spatial subscription window, a tier,
// and a byte-budgeted backlog. Fields are owned by the hub; read stats
// between flushes.
type Conn struct {
	ID    int
	Focus spatial.Vec2
	AOI   float64
	// Budget is this client's per-tick drain in bytes (0 = hub default).
	Budget int

	tier       Tier
	cover      []coverRow
	coverDirty bool

	// The backlog is messages head ≤ i < len(sums)−1, oldest first,
	// message i being sums[i+1]−sums[i] bytes; spans[spanHead:] say
	// which tick each carries. Delivery and drops advance head, and
	// compact reuses both arrays, so a backlog costs a flush the spans
	// it touches, not its length.
	sums      []int64
	spans     []span
	head      int
	spanHead  int
	qBytes    int
	sampleCtr int

	// Delivered message/byte/snapshot/drop tallies, cumulative.
	Msgs      int64
	Bytes     int64
	Snapshots int64
	Drops     int64
}

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

	ents map[ID]*entState

	// dir is the dense cell directory: row-major over the box of cells
	// [dirX, dirX+dirW) × [dirY, dirY+dirH), which holds every cell an
	// entity has occupied. Only the intake path (place) grows it; the
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

	// evs and ups are this tick's events and updates in intake order.
	// seal marks their cells in live, one bit per directory cell in rows
	// of liveWords words; rank[w] counts the marks before word w, so a
	// mark's rank is its cell's index in hot. It groups the lists by that
	// rank into evGroups and upGroups, whose runs are in arena; groupEnd
	// is the counting sort's scratch.
	evs       []event
	ups       []update
	live      []uint64
	rank      []int32
	liveWords int
	hot       []liveCell
	evGroups  []event
	upGroups  []update
	groupEnd  []int32
	arena     []int64

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

	// sizeEnc is the encoder scratch messages are priced with.
	sizeEnc wire.Enc
}

// updateSize prices one field-update message.
func (h *Hub) updateSize(id ID, fi int32, val float64) int32 {
	h.sizeEnc.Reset()
	AppendUpdateMsg(&h.sizeEnc, id, fi, val)
	return int32(h.sizeEnc.Len())
}

// memberFor prices an entity's snapshot and removal messages.
func (h *Hub) memberFor(id ID, vals []float64) member {
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
		ents:  make(map[ID]*entState),
		dueAt: make(map[int64][]ID),
	}
}

// Specs returns the replicated field specs.
func (h *Hub) Specs() []FieldSpec { return h.specs }

// Entities returns the replicated entity count.
func (h *Hub) Entities() int { return len(h.ents) }

// AppendIDs appends every replicated entity's id to dst, in no
// particular order.
func (h *Hub) AppendIDs(dst []ID) []ID {
	for id := range h.ents {
		dst = append(dst, id)
	}
	return dst
}

// Divergence returns the largest |current − last shipped| value of the
// named field over every entity: how far a client at TierExact that has
// drained its queue lags the authoritative state. It reports false for a
// field the hub does not replicate.
func (h *Hub) Divergence(field string) (float64, bool) {
	fi := slices.IndexFunc(h.specs, func(s FieldSpec) bool { return s.Name == field })
	if fi < 0 {
		return 0, false
	}
	d := 0.0
	for _, es := range h.ents {
		d = max(d, math.Abs(es.cur[fi]-es.sent[fi]))
	}
	return d, true
}

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

// BeginTick opens a tick: the tick lists empty and the due index for
// this tick re-evaluates (time-driven Coarse/Cosmetic ships surface
// here without any dirty mark, mirroring the shard reconcile's due
// index).
func (h *Hub) BeginTick(tick int64) {
	h.tick = tick
	h.evs, h.ups = h.evs[:0], h.ups[:0]
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
			h.evalFields(id, es)
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
	h.evs = append(h.evs, event{at: k, kind: evSpawn, id: id, bytes: m.snapBytes})
}

// DespawnEntity removes an entity; subscribed clients get a removal.
func (h *Hub) DespawnEntity(id ID) {
	es, ok := h.ents[id]
	if !ok {
		return
	}
	m := h.leave(h.cellFor(es.cell), es)
	h.evs = append(h.evs, event{at: es.cell, kind: evDespawn, id: id, bytes: m.removeBytes})
	delete(h.ents, id)
}

// UpdateEntity offers one entity's current position and values: cell
// transitions become enter/leave events, and each field evaluates
// ShouldShip once against the global baseline (unknown ids spawn).
// Offering an entity that has not changed ships nothing and leaves the
// due index as it was, so a caller may offer every entity every tick.
// A position the hub cannot place despawns the entity and counts in
// StrayTotal once per offer, so a stray offered every tick counts every
// tick.
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
		m := h.leave(h.cellFor(es.cell), es) // after place: growing moves every cell
		h.evs = append(h.evs,
			event{at: es.cell, kind: evLeave, id: id, other: k, bytes: m.removeBytes},
			event{at: k, kind: evEnter, id: id, other: es.cell, bytes: m.snapBytes})
		join(dst, es, m)
		es.cell = k
	}
	es.pos = pos
	copy(es.cur, vals)
	h.evalFields(id, es)
}

// evalFields runs the delta gate for every field of one entity,
// emitting ships as updates in the entity's cell, and registering the entity
// for the earliest tick a declined-but-diverged value comes due. One
// registration serves every pending field: the evaluation it triggers
// registers whatever still pends then, so an entity sits in dueAt once
// per due tick however often it is evaluated in between.
func (h *Hub) evalFields(id ID, es *entState) {
	next, pending := int64(0), false
	for fi, spec := range h.specs {
		cur := es.cur[fi]
		if spec.ShouldShip(cur, es.sent[fi], h.tick, es.sentTick[fi]) {
			es.sent[fi] = cur
			es.sentTick[fi] = h.tick
			h.ups = append(h.ups,
				update{at: es.cell, id: id, fi: int32(fi), class: spec.Class, bytes: h.updateSize(id, int32(fi), cur)})
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

// cellFor returns cell k, which is inside the box. The pointer is good
// until the directory next grows.
func (h *Hub) cellFor(k spatial.CellKey) *cell {
	i, _ := h.index(k)
	return &h.dir[i]
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

// subscribed reports whether a client window reaches cell k. It is
// CellCover's per-cell test, but CellCover only tries the cells its
// bounding box overlaps, so a cell that touches the window at exactly
// aoi is subscribed here and still outside the cover.
func subscribed(focus spatial.Vec2, aoi, cell float64, k spatial.CellKey) bool {
	return k.Rect(cell).Dist2(focus) <= aoi*aoi
}

// seal readies the tick's traffic for the flush workers: each cell with
// a record in the tick lists gets its mark in the live map and, at the
// mark's rank, a liveCell in hot. Both lists are grouped by that rank
// and each group's runs are laid out in the arena — grown once up front,
// so every run lands in the one array. The directory's cells, which
// maxDirCells bounds, carry none of it.
func (h *Hub) seal() {
	words := (h.dirW + 63) >> 6
	if n := words * h.dirH; len(h.live) != n || h.liveWords != words {
		h.live, h.rank, h.liveWords = make([]uint64, n), make([]int32, n), words
	} else {
		clear(h.live)
	}
	for _, e := range h.evs {
		w, bit := h.mark(e.at)
		h.live[w] |= bit
	}
	for _, u := range h.ups {
		w, bit := h.mark(u.at)
		h.live[w] |= bit
	}
	n := int32(0)
	for w, marks := range h.live {
		h.rank[w] = n
		n += int32(bits.OnesCount64(marks))
	}
	h.hot = slices.Grow(h.hot[:0], int(n))[:n]
	arena := slices.Grow(h.arena[:0], len(h.evs)+len(h.ups)*len(liveCell{}.runs)+int(n)*(1+len(liveCell{}.runs)))
	h.evGroups = groupByCell(h, h.evs, h.evGroups, func(e *event) spatial.CellKey { return e.at }, func(r int, evs []event) {
		lc := &h.hot[r]
		lc.events = evs
		lc.evs, arena = sealRun(arena, evs, func(e event) (int32, bool) { return e.bytes, true })
	})
	h.upGroups = groupByCell(h, h.ups, h.upGroups, func(u *update) spatial.CellKey { return u.at }, func(r int, ups []update) {
		for top := range h.hot[r].runs {
			h.hot[r].runs[top], arena = sealRun(arena, ups, func(u update) (int32, bool) { return u.bytes, u.class <= Class(top) })
		}
	})
	h.arena = arena
}

// mark is where cell k's bit goes in the live map: its word and bit. k
// must be inside the box.
func (h *Hub) mark(k spatial.CellKey) (int, uint64) {
	x, y := int(k.X)-h.dirX, int(k.Y)-h.dirY
	return y*h.liveWords + x>>6, 1 << (x & 63)
}

// groupByCell sorts xs by the rank of their marked cells into dst with
// one stable counting sort, keeping intake order inside a cell, and
// hands each live cell's group to each in rank order. It returns dst.
func groupByCell[T any](h *Hub, xs, dst []T, cell func(*T) spatial.CellKey, each func(r int, group []T)) []T {
	rank := func(k spatial.CellKey) int32 {
		w, bit := h.mark(k)
		return h.rank[w] + int32(bits.OnesCount64(h.live[w]&(bit-1)))
	}
	end := slices.Grow(h.groupEnd[:0], len(h.hot)+1)[:len(h.hot)+1]
	clear(end)
	for i := range xs {
		end[rank(cell(&xs[i]))+1]++
	}
	for r := 1; r < len(end); r++ {
		end[r] += end[r-1]
	}
	// end[r] is where group r starts; placing a record advances it, so
	// once every record is placed it is where group r ends.
	dst = slices.Grow(dst[:0], len(xs))[:len(xs)]
	for i := range xs {
		r := rank(cell(&xs[i]))
		dst[end[r]] = xs[i]
		end[r]++
	}
	from := int32(0)
	for r, to := range end[:len(h.hot)] {
		each(r, dst[from:to])
		from = to
	}
	h.groupEnd = end
	return dst
}

// sealRun appends the messages of xs that size passes to buf as a run,
// returning the run and the extended buffer.
func sealRun[T any](buf []int64, xs []T, size func(T) (int32, bool)) (run, []int64) {
	at := len(buf)
	buf = append(buf, 0)
	var bytes int64
	for _, x := range xs {
		if b, ok := size(x); ok {
			bytes += int64(b)
			buf = append(buf, bytes)
		}
	}
	return run{buf[at:], bytes}, buf
}

// flushTally is one flush worker's running totals and the per-client
// scratch flushConn rebuilds for every client it runs.
type flushTally struct {
	stats   flushStats
	tiers   [3]int
	samples []float64

	keys   []spatial.CellKey // the client's new cover, as CellCover lists it
	cover  []coverRow        // the same, as rows
	fresh  []spatial.CellKey // cells the cover gained this flush, row-major
	pops   []int64           // the runs of the populations it gained and lost
	segs   []run             // this tick's stream in delivery order, from next on
	next   int               // the first run not yet delivered or dropped
	msgs   int               // the messages in segs[next:]
	stream int64             // and their bytes

	_ [64]byte // workers write their tallies all flush long: keep them off each other's cache lines
}

// push appends run r to the client's stream.
func (tl *flushTally) push(r run) {
	if n := len(r.sums) - 1; n > 0 {
		tl.segs = append(tl.segs, r)
		tl.msgs += n
		tl.stream += r.bytes
	}
}

// FlushTick seals the tick's traffic, fans it to every client (over the
// worker pool), drains each client's stream by its byte budget, applies
// the tier watermarks, and reports totals.
func (h *Hub) FlushTick() TickReport {
	rep := TickReport{Tick: h.tick}
	h.seal()
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
		h.Staleness.RecordAll(tl.samples)
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

// cellLess orders cell keys row-major, the order a client's stream
// visits its cells in.
func cellLess(a, b spatial.CellKey) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// noRow is the empty interval, for a row only one of two covers has.
var noRow = coverRow{x0: math.MaxInt32, x1: math.MinInt32}

func (r coverRow) has(x int) bool { return int(r.x0) <= x && x <= int(r.x1) }

// flushConn runs one client's tick. It lays the tick's stream out as
// runs — window maintenance, then each covered cell with traffic — and
// treats backlog and stream as one sequence: the oldest messages past
// MaxQueue drop, the budget drains from the front, and only what is left
// of the stream is copied into the backlog. Whole runs cost O(1); a run
// the cap or the budget cuts costs a binary search.
func (h *Hub) flushConn(c *Conn, tl *flushTally) {
	var fs flushStats
	tl.segs, tl.next, tl.msgs, tl.stream = tl.segs[:0], 0, 0, 0
	tl.fresh, tl.pops = tl.fresh[:0], tl.pops[:0]
	if c.coverDirty {
		h.moveWindow(c, tl, &fs)
	}
	h.collect(c, tl, &fs)

	if over := int64(c.qBytes) + tl.stream - int64(h.cfg.MaxQueue); over > 0 {
		k, _ := h.consume(c, tl, over, false)
		fs.drops = int64(k)
	}
	budget := int64(c.Budget)
	if budget <= 0 {
		budget = int64(h.cfg.ByteBudget)
	}
	k, b := h.consume(c, tl, budget, true)
	fs.msgs, fs.bytes = int64(k), b
	c.compact()
	if tl.next < len(tl.segs) {
		c.queue(tl.segs[tl.next:], h.tick)
	}

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

// moveWindow recomputes a moved client's cover and streams the
// difference: a cell only the new cover holds snapshots its population
// and becomes fresh, a cell only the old one held sends removals for
// its population. Entities in cells left behind are still alive — only
// this client's window moved.
func (h *Hub) moveWindow(c *Conn, tl *flushTally, fs *flushStats) {
	// One x-interval per row: a row of a disc's cover is contiguous, so
	// its first and last cells bound it.
	tl.keys = spatial.CellCover(c.Focus, c.AOI, h.cfg.Cell, tl.keys[:0])
	rows := tl.cover[:0]
	for _, k := range tl.keys {
		if n := len(rows); n > 0 && rows[n-1].y == k.Y {
			rows[n-1].x1 = k.X
			continue
		}
		rows = append(rows, coverRow{y: k.Y, x0: k.X, x1: k.X})
	}
	tl.cover = rows
	// Merge-walk old vs new cover, row-major.
	old := c.cover
	for i, j := 0, 0; i < len(old) || j < len(rows); {
		o, r := noRow, noRow
		switch {
		case j == len(rows) || (i < len(old) && old[i].y < rows[j].y):
			o, r.y = old[i], old[i].y
			i++
		case i == len(old) || rows[j].y < old[i].y:
			r = rows[j]
			j++
		default:
			o, r = old[i], rows[j]
			i++
			j++
		}
		for x := int(min(o.x0, r.x0)); x <= int(max(o.x1, r.x1)); x++ {
			k := spatial.CellKey{X: int32(x), Y: r.y}
			var pop run
			switch in := r.has(x); {
			case in && !o.has(x):
				pop, tl.pops = sealRun(tl.pops, h.lookup(k).pop, func(m member) (int32, bool) { return m.snapBytes, true })
				fs.snaps += int64(len(pop.sums) - 1)
				tl.fresh = append(tl.fresh, k)
			case !in && o.has(x):
				pop, tl.pops = sealRun(tl.pops, h.lookup(k).pop, func(m member) (int32, bool) { return m.removeBytes, true })
			}
			tl.push(pop)
		}
	}
	c.cover = append(c.cover[:0], rows...)
	c.coverDirty = false
}

// collect streams the covered cells with traffic this tick, row-major,
// found off the live map: each cell's events, then its updates under
// the client's tier filter. A fresh cell snapshotted this flush: its
// events would double-ship spawns and entries the population snapshot
// already carries, and its updates are baked into the snapshot values.
func (h *Hub) collect(c *Conn, tl *flushTally, fs *flushStats) {
	top := Cosmetic // the highest class the tier passes
	switch {
	case c.tier == TierCosmetic && h.tick%h.cfg.CoarseThinning != 0:
		top = Exact
	case c.tier != TierExact:
		top = Coarse
	}
	fresh, fn := tl.fresh, 0
	for _, r := range c.cover {
		y := int(r.y) - h.dirY
		x0, x1 := max(int(r.x0)-h.dirX, 0), min(int(r.x1)-h.dirX, h.dirW-1)
		if uint(y) >= uint(h.dirH) || x0 > x1 {
			continue
		}
		marks, ranks := h.live[y*h.liveWords:], h.rank[y*h.liveWords:]
		for w := x0 >> 6; w <= x1>>6; w++ {
			word := marks[w]
			if w == x0>>6 {
				word &= ^uint64(0) << (x0 & 63)
			}
			if w == x1>>6 {
				word &= ^uint64(0) >> (63 - x1&63)
			}
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				k := spatial.CellKey{X: int32(w<<6 + b + h.dirX), Y: r.y}
				for fn < len(fresh) && cellLess(fresh[fn], k) {
					fn++
				}
				if fn < len(fresh) && fresh[fn] == k {
					continue
				}
				lc := &h.hot[ranks[w]+int32(bits.OnesCount64(marks[w]&(1<<b-1)))]
				if len(lc.events) > 0 {
					h.pushEvents(c, lc, tl, fs)
				}
				tl.push(lc.runs[top])
			}
		}
	}
}

// pushEvents streams a live cell's events in intake order, as runs of
// the ones this window ships: an entity moving between two cells it
// covers is already visible, the deltas carry it.
func (h *Hub) pushEvents(c *Conn, lc *liveCell, tl *flushTally, fs *flushStats) {
	from := 0
	for e, ev := range lc.events {
		ship := true
		switch ev.kind {
		case evSpawn:
			fs.snaps++
		case evEnter:
			if ship = !subscribed(c.Focus, c.AOI, h.cfg.Cell, ev.other); ship {
				fs.snaps++
			}
		case evLeave:
			ship = !subscribed(c.Focus, c.AOI, h.cfg.Cell, ev.other)
		}
		if !ship {
			tl.push(sumsRun(lc.evs.sums[from : e+1]))
			from = e + 1
		}
	}
	tl.push(sumsRun(lc.evs.sums[from:]))
}

// consume takes from the front of the client's backlog-then-stream the
// fewest messages whose bytes reach x, or all of them, and returns how
// many it took and their bytes. Delivered, they are sampled for
// staleness; otherwise they were dropped. A message goes while the bytes
// before it are under a budget x, and the oldest go until an overflow x
// is covered.
func (h *Hub) consume(c *Conn, tl *flushTally, x int64, deliver bool) (int, int64) {
	q := c.backlog()
	msgs, bytes := q.take(x)
	c.qBytes -= int(bytes)
	for n := msgs; n > 0; {
		sp := c.spans[c.spanHead]
		m := min(n, sp.end-c.head)
		if deliver {
			h.sample(c, m, sp.tick, tl)
		}
		if c.head += m; c.head == sp.end {
			c.spanHead++
		}
		n -= m
	}
	if x -= bytes; x > tl.stream {
		// The whole stream goes as one run.
		msgs, bytes = msgs+tl.msgs, bytes+tl.stream
		if deliver {
			h.sample(c, tl.msgs, h.tick, tl)
		}
		tl.next, tl.msgs, tl.stream = len(tl.segs), 0, 0
		return msgs, bytes
	}
	for x > 0 && tl.next < len(tl.segs) {
		r := &tl.segs[tl.next]
		m, b := r.take(x)
		if deliver {
			h.sample(c, m, h.tick, tl)
		}
		if len(r.sums) == 1 {
			tl.next++
		}
		x -= b
		msgs, bytes = msgs+m, bytes+b
		tl.msgs, tl.stream = tl.msgs-m, tl.stream-b
	}
	return msgs, bytes
}

// sample counts n delivered messages carrying tick's state against the
// client's 1-in-StalenessSample counter and records the delay of each
// one it picks.
func (h *Hub) sample(c *Conn, n int, tick int64, tl *flushTally) {
	for c.sampleCtr += n; c.sampleCtr >= h.cfg.StalenessSample; c.sampleCtr -= h.cfg.StalenessSample {
		tl.samples = append(tl.samples, float64(h.tick-tick))
	}
}

// backlog is the client's queue as one run.
func (c *Conn) backlog() run { return run{c.sums[c.head:], int64(c.qBytes)} }

// compact empties a drained backlog in place, keeping its arrays for the
// next one, or slides a backlog whose delivered prefix has outgrown it
// down over that prefix, each message moved at most once per message
// delivered.
func (c *Conn) compact() {
	switch live := len(c.sums) - 1 - c.head; {
	case live <= 0:
		c.sums, c.spans, c.head, c.spanHead = c.sums[:0], c.spans[:0], 0, 0
	case c.head >= live:
		c.sums = c.sums[:copy(c.sums, c.sums[c.head:])]
		c.spans = c.spans[:copy(c.spans, c.spans[c.spanHead:])]
		for i := range c.spans {
			c.spans[i].end -= c.head
		}
		c.head, c.spanHead = 0, 0
	}
}

// queue appends what the budget left of this tick's stream to the
// backlog, as a span of tick's messages.
func (c *Conn) queue(segs []run, tick int64) {
	if len(c.sums) == 0 {
		c.sums = append(c.sums, 0)
	}
	end := c.sums[len(c.sums)-1]
	for _, r := range segs {
		for _, v := range r.sums[1:] {
			c.sums = append(c.sums, end+v-r.sums[0])
		}
		end += r.bytes
		c.qBytes += int(r.bytes)
	}
	c.spans = append(c.spans, span{end: len(c.sums) - 1, tick: tick})
}
