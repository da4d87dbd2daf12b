package world

// The state-effect pattern (the SIGMOD'09 paper's processing model,
// elaborated in Sowell et al., "From Declarative Languages to
// Declarative Processing in Computer Games"): behaviors are read-only
// queries over the frozen tick-start state that emit *effects* — typed
// change records — which are combined and applied set-at-a-time after
// the query phase. Because no query writes shared state, the query
// phase parallelizes freely; because the combine is deterministic, the
// resulting world state is identical for any worker count.

import (
	"fmt"
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/spatial"
)

// EffectKind discriminates the typed change records behaviors emit.
type EffectKind uint8

const (
	// EffectSet assigns a column an absolute value. Conflicting
	// assignments resolve by ascending source entity id, then source
	// emission order (last write wins).
	EffectSet EffectKind = iota
	// EffectAdd adds a numeric delta to a column. Deltas are
	// commutative and combine additively with whatever the assignment
	// pass produced (velocity physics joins the same pass as column runs,
	// not records; see integrate).
	EffectAdd
	// EffectSpawn materializes an archetype instance. Final entity ids
	// are allocated at apply time in (source id, source order), so they
	// are reproducible for any worker count.
	EffectSpawn
	// EffectDespawn removes an entity; duplicate despawns of the same
	// target collapse into one (the rest count as conflicts).
	EffectDespawn
	// EffectPost queues a trigger event for the post-apply drain.
	EffectPost
)

const (
	// provBase marks provisional entity ids: the handles emitSpawn
	// returns to scripts during the query phase, remapped to real
	// allocator ids during apply. The bit is far above both coordinator
	// ids and the shard script-id streams (1<<32).
	provBase entity.ID = 1 << 62
	// maxSpawnsPerCall bounds spawns in one behavior invocation so the
	// provisional id (provBase + src*maxSpawnsPerCall + n) is a pure
	// deterministic function of the emitting entity.
	maxSpawnsPerCall = 1 << 12
	// maxProvSrc keeps the provisional id arithmetic below 1<<63.
	maxProvSrc entity.ID = 1 << 49
)

// Effect is one typed change record. Src/Seq give every record a
// deterministic total order independent of which worker emitted it:
// each entity is processed by exactly one worker, so (Src, Seq) is the
// same for any partitioning.
//
// Effect is 88 bytes: Kind shares Seq's word, and a record's one string
// lives in Col. Every emission, merge and barrier row copies records, so
// the width is a hot-path property (TestHotRecordSizes pins it).
type Effect struct {
	Src  entity.ID // emitting entity
	Seq  int32     // emission order within Src's invocation
	Kind EffectKind
	// Target is the affected entity for Set/Add/Despawn/Post; it may be
	// a provisional id from a same-invocation spawn.
	Target entity.ID
	// Col is the record's one name: the column of a Set or Add, the
	// archetype of a Spawn, the event name of a Post (empty for Despawn).
	Col string
	Val entity.Value // Set value, Add delta, Post amount
	Pos spatial.Vec2 // Spawn position
}

// readCell identifies one read (or written) cell for conflict tracking:
// an entity's column. The owning table is implied — the id allocator
// never reuses ids, so (id, column) names a cell unambiguously across
// the whole world (the issue-level description "(table, row, column)"
// collapses to this pair). readCell is the comparable cell type the
// generic txn OCC core operates over.
type readCell struct {
	id  entity.ID
	col string
}

// invocRec marks one invocation's contiguous slice of its buffer's
// read log. Records stay open while the invocation runs and close on
// the next begin / closeInvoc; a rolled back invocation's record is
// popped — it contributed nothing and can never be re-run.
type invocRec struct {
	src            entity.ID
	readLo, readHi int
	open           bool
}

// EffectBuffer collects one worker's effects during the query phase.
// Emission validates against the frozen tick-start state so scripts see
// the same errors direct execution would have raised (unknown entity,
// unknown column, kind mismatch); apply-time conflicts then only arise
// from genuine cross-entity races (e.g. two entities despawning the
// same target).
type EffectBuffer struct {
	w       *World
	effects []Effect

	// trackReads enables per-invocation read-set logging (set when the
	// world's ConflictPolicy is occ): the read-only builtins note every
	// cell they observe into reads, and invocs records each invocation's
	// slice of both logs so the apply phase can validate losers of
	// conflicting assignments against what they actually read.
	trackReads bool
	reads      []readCell
	invocs     []invocRec

	// cur is the invocation open on the buffer, from begin to the next
	// begin. A batched behavior run keeps one per lane instead (batch.go).
	cur invoc
	// env is the buffer's gslplan.Env: the open invocation's, and through
	// Lane the batch lanes'. Every plan bound to this worker slot holds it.
	env planEnv
	// provTable maps provisional spawn ids to their archetype's table so
	// set/add against a just-spawned entity validate and coerce. Provisional
	// ids embed their source, so one map serves every invocation and lane.
	provTable map[entity.ID]string

	// tinfos caches (table → schema, column index, kind) resolution
	// across emissions: checkCol sits on the emission hot path, and
	// without the cache every set/add re-does the schema column lookup
	// and the kind fetch. Entries revalidate by schema pointer, so schema
	// migrations invalidate naturally; ResetState/Restore build new Table
	// objects and clear the map. lastInfo is the entry the previous
	// emission used.
	tinfos   map[*entity.Table]*tableInfo
	lastInfo *tableInfo
	// memoID/memoTab memoize the last target → table resolution other
	// than the subject's own (an invocation with self set knows its
	// table). begin invalidates the memo; within the query phase, or one
	// invocation of a later phase, no effect despawns or moves rows, so it
	// cannot go stale.
	memoID  entity.ID
	memoTab *entity.Table
	memoOK  bool

	batchState
}

// invoc is one invocation's emission state: its source entity, the next
// emission order and spawn index, and the splitmix64 state behind
// rand_float — seeded from (world seed, tick, source entity), so the
// stream is reproducible for any worker count or partitioning. When self
// is set, slot and tab are the subject's grid slot and table: the query
// phase resolves the subject's directory record once (seedSelf, or the
// roster's record index for a batch lane), so nearby(self, r),
// pos_x(self), move_toward(self, …) and writes to self need no second
// probe.
type invoc struct {
	src      entity.ID
	seq      int32
	spawnIdx int32
	rng      uint64
	slot     int32
	self     bool
	tab      *entity.Table
}

// newInvoc opens src's emission state for the current tick.
func (w *World) newInvoc(src entity.ID) invoc { return w.tickInvoc(w.rngBase(), src) }

// rngBase is the (world seed, tick) half of every rand stream's seed.
func (w *World) rngBase() uint64 { return mix64(uint64(w.cfg.Seed)) ^ mix64(uint64(w.tick)) }

// tickInvoc opens src's emission state given the tick's rngBase.
func (w *World) tickInvoc(base uint64, src entity.ID) invoc {
	return invoc{src: src, rng: base ^ mix64(uint64(src)*0x9e3779b97f4a7c15)}
}

// rand draws the invocation's next deterministic float in [0,1).
func (v *invoc) rand() float64 {
	v.rng += 0x9e3779b97f4a7c15
	return float64(mix64(v.rng)>>11) / (1 << 53)
}

// pos returns id's indexed position, reading the subject's from its slot.
func (v *invoc) pos(w *World, id entity.ID) (spatial.Vec2, bool) {
	if v.self && id == v.src {
		if v.slot == noSlot {
			return spatial.Vec2{}, false
		}
		return w.index.PosSlot(v.slot), true
	}
	return w.Pos(id)
}

// tableInfo is one table's cached resolution state in an EffectBuffer.
type tableInfo struct {
	tab    *entity.Table
	schema *entity.Schema
	cols   map[string]colInfo
}

// colInfo caches one column's index and kind.
type colInfo struct {
	idx  int
	kind entity.Kind
}

func newEffectBuffer(w *World) *EffectBuffer {
	b := &EffectBuffer{
		w:          w,
		trackReads: w.occEnabled(),
		provTable:  make(map[entity.ID]string),
		tinfos:     make(map[*entity.Table]*tableInfo),
	}
	b.env = planEnv{w: w, buf: b, lane: noLane}
	return b
}

// reset clears the buffer for a new tick.
func (b *EffectBuffer) reset() {
	b.effects = b.effects[:0]
	b.reads = b.reads[:0]
	b.invocs = b.invocs[:0]
	clear(b.provTable)
}

// begin starts an invocation for src and returns a rollback mark.
func (b *EffectBuffer) begin(src entity.ID) int {
	b.cur = b.w.newInvoc(src)
	b.memoOK = false
	if b.trackReads {
		b.closeInvoc()
		b.invocs = append(b.invocs, invocRec{src: src, readLo: len(b.reads), open: true})
	}
	return len(b.effects)
}

// seedSelf records the subject of the invocation begin just opened from
// its directory record: its table for the emission memo and its grid
// slot for position reads.
func (b *EffectBuffer) seedSelf(r *entRec) {
	b.cur.slot, b.cur.tab, b.cur.self = r.slot, r.tab, true
}

// closeInvoc seals the open invocation record, if any. Idempotent.
func (b *EffectBuffer) closeInvoc() {
	if !b.trackReads || len(b.invocs) == 0 {
		return
	}
	last := &b.invocs[len(b.invocs)-1]
	if last.open {
		last.readHi = len(b.reads)
		last.open = false
	}
}

// rollback discards everything emitted since mark — behaviors are
// atomic: an invocation that errors or runs out of fuel contributes no
// effects at all. Under read tracking the open invocation record and
// its reads are discarded with it: a rolled-back invocation can never
// be a conflict participant.
func (b *EffectBuffer) rollback(mark int) {
	b.effects = b.effects[:mark]
	if b.trackReads && len(b.invocs) > 0 {
		last := &b.invocs[len(b.invocs)-1]
		if last.open {
			b.reads = b.reads[:last.readLo]
			b.invocs = b.invocs[:len(b.invocs)-1]
		}
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tableFor resolves the table holding invocation v's target, following
// provisional spawn ids through the spawn bookkeeping. The subject's own
// table comes with v; a one-entry memo short-circuits repeated other
// targets.
func (b *EffectBuffer) tableFor(v *invoc, target entity.ID) (*entity.Table, error) {
	if v.self && target == v.src {
		return v.tab, nil
	}
	if b.memoOK && target == b.memoID {
		return b.memoTab, nil
	}
	var tab *entity.Table
	if target >= provBase {
		if name, ok := b.provTable[target]; ok {
			tab = b.w.tables[name]
		}
	} else if rec := b.w.dir.find(target); rec != nil {
		tab = rec.tab
	}
	if tab == nil {
		return nil, fmt.Errorf("world: unknown entity %d", target)
	}
	b.memoID, b.memoTab, b.memoOK = target, tab, true
	return tab, nil
}

// tableInfo returns tab's cached resolution entry, rebuilding it when
// the table's schema object changed (migration).
func (b *EffectBuffer) tableInfo(tab *entity.Table) *tableInfo {
	ti := b.lastInfo
	if ti == nil || ti.tab != tab {
		ti = b.tinfos[tab]
	}
	if ti == nil || ti.schema != tab.Schema() {
		ti = &tableInfo{tab: tab, schema: tab.Schema(), cols: make(map[string]colInfo)}
		b.tinfos[tab] = ti
	}
	b.lastInfo = ti
	return ti
}

// checkCol validates the column and coerces/checks the value kind the
// way direct-mode Set would, so errors surface to the script at the
// call site instead of silently at apply. Resolution runs against the
// buffer's cache; only the first emission touching a (table, column)
// pays the schema map lookups.
func (b *EffectBuffer) checkCol(inv *invoc, target entity.ID, col string, v entity.Value) (entity.Value, error) {
	tab, err := b.tableFor(inv, target)
	if err != nil {
		return v, err
	}
	ti := b.tableInfo(tab)
	info, ok := ti.cols[col]
	if !ok {
		ci, has := ti.schema.Col(col)
		if !has {
			return v, fmt.Errorf("world: no column %q in %q", col, tab.Name())
		}
		info = colInfo{idx: ci, kind: ti.schema.ColAt(ci).Kind}
		ti.cols[col] = info
	}
	if info.kind == entity.KindFloat {
		if f, okF := v.AsFloat(); okF {
			v = entity.Float(f)
		}
	}
	if v.Kind() != info.kind {
		return v, fmt.Errorf("world: column %q wants %s, got %s", col, info.kind, v.Kind())
	}
	return v, nil
}

// setRec validates an assignment the way direct-mode Set would and
// returns its record; the caller's Env stamps and buffers it.
func (b *EffectBuffer) setRec(inv *invoc, target entity.ID, col string, v entity.Value) (Effect, error) {
	v, err := b.checkCol(inv, target, col, v)
	if err != nil {
		return Effect{}, err
	}
	return Effect{Kind: EffectSet, Target: target, Col: col, Val: v}, nil
}

func (b *EffectBuffer) addRec(inv *invoc, target entity.ID, col string, delta entity.Value) (Effect, error) {
	delta, err := b.checkCol(inv, target, col, delta)
	if err != nil {
		return Effect{}, err
	}
	if delta.Kind() != entity.KindInt && delta.Kind() != entity.KindFloat {
		return Effect{}, fmt.Errorf("world: add delta must be numeric, got %s", delta.Kind())
	}
	return Effect{Kind: EffectAdd, Target: target, Col: col, Val: delta}, nil
}

// spawnRec records a spawn for invocation v and returns its record, whose
// Target is the provisional id the script can target with further
// effects this invocation. The spawned row materializes at apply, so
// reads of the id stay "unknown entity" until the next tick.
func (b *EffectBuffer) spawnRec(v *invoc, archetype string, pos spatial.Vec2) (Effect, error) {
	a, ok := b.w.archetypes[archetype]
	if !ok {
		return Effect{}, fmt.Errorf("world: unknown archetype %q", archetype)
	}
	if v.spawnIdx >= maxSpawnsPerCall {
		return Effect{}, fmt.Errorf("world: more than %d spawns in one behavior invocation", maxSpawnsPerCall)
	}
	if v.src >= maxProvSrc {
		return Effect{}, fmt.Errorf("world: entity id %d too large to spawn from a behavior", v.src)
	}
	prov := provBase + v.src*maxSpawnsPerCall + entity.ID(v.spawnIdx)
	v.spawnIdx++
	b.provTable[prov] = a.Table
	return Effect{Kind: EffectSpawn, Target: prov, Col: archetype, Pos: pos}, nil
}

func (b *EffectBuffer) despawnRec(inv *invoc, target entity.ID) (Effect, error) {
	if _, err := b.tableFor(inv, target); err != nil {
		return Effect{}, err
	}
	return Effect{Kind: EffectDespawn, Target: target}, nil
}

// applyEffects merges the workers' buffers into one deterministic
// sequence and applies it set-at-a-time: one global sort by (source id,
// source order), then five passes — spawns (allocating real ids in
// sorted order), assignments (last write wins), additive deltas
// (summed in sorted order, so float combining is bit-reproducible),
// despawns (deduplicated), and event posts. Cross-entity races that
// sequential execution would have surfaced as script errors (setting a
// row another entity despawned, double despawns) are counted as
// conflicts and skipped — the effect analogue of a lost OCC validation.
// The applied-record and conflict tallies land in *effects/*conflicts —
// the behavior query phase and the trigger rounds account separately.
//
// The assignment and delta passes run columnar: merged effects group by
// (table, column) and write through the batch entry points on
// entity.Table, with one spatial MoveSlots flush for position changes
// (see apply_batch.go). The behavior phase's apply also integrates the
// tick's physics list into the delta groups, so it runs even when no
// behavior emitted anything.
//
// This is the ConflictLastWrite path. Config.ConflictPolicy == occ
// routes applies through applyEffectsOCC (occ.go) instead, which wraps
// the same merge and passes in a read-set validate / serial re-run
// loop built on the internal/txn OCC core.
func (w *World) applyEffects(bufs []*EffectBuffer, effects, conflicts *int) {
	merged := w.collectMerge(bufs)
	if w.forwardingOn() {
		merged = w.partitionRemote(merged)
	}
	if len(merged) == 0 && w.physNext == len(w.physList) {
		return
	}
	*effects += len(merged)
	w.applyMerged(merged, conflicts)
}

// collectMerge concatenates the workers' buffers into the world's merge
// scratch and orders the result into the deterministic (source id,
// source order) apply sequence. The returned slice aliases w.mergeBuf;
// it is valid until the next collectMerge.
func (w *World) collectMerge(bufs []*EffectBuffer) []Effect {
	total := 0
	for _, b := range bufs {
		total += len(b.effects)
	}
	if total == 0 {
		return nil
	}
	merged := w.mergeBuf[:0]
	for _, b := range bufs {
		merged = append(merged, b.effects...)
	}
	w.mergeBuf = merged[:0]
	w.sortEffects(merged)
	return merged
}

// effKey is one record's place in the merge order — its (source id,
// source order) plus its index in the unordered sequence — so ordering
// moves 16-byte keys, not 88-byte records.
type effKey struct {
	src entity.ID
	seq int32
	idx int32
}

func (a effKey) before(b effKey) bool {
	return a.src < b.src || (a.src == b.src && a.seq < b.seq)
}

// sortEffects orders records by (source id, source order) — the one
// total order every apply pass consumes — as a natural merge sort.
// Producers walk their sources ascending (the sorted roster, a trigger
// round's match indices, serial re-runs), so a sequence is one
// ascending run per worker: one pass builds the keys and finds the
// runs, a single run returns at once, otherwise adjacent runs merge
// pairwise through the world's key scratch and one permutation pass
// moves each record to its place. (Src, Seq) is unique within a
// behavior phase and within a trigger round; barrier re-runs of one
// source at two generations can tie, and ties keep their input order
// (runs are non-descending, the merge prefers the left run).
func (w *World) sortEffects(merged []Effect) {
	keys, runs := w.sortKeys[:0], w.sortRuns[:0]
	for i := range merged {
		k := effKey{src: merged[i].Src, seq: merged[i].Seq, idx: int32(i)}
		if i == 0 || k.before(keys[i-1]) {
			runs = append(runs, int32(i))
		}
		keys = append(keys, k)
	}
	w.sortKeys, w.sortRuns = keys, runs
	if len(runs) <= 1 {
		return
	}
	n := int32(len(keys))
	runs = append(runs, n) // every run's start, then the end sentinel
	spare := slices.Grow(w.sortSpare[:0], len(keys))[:n]
	for ; len(runs) > 2; keys, spare = spare, keys {
		// One pass merges runs (lo, mid) and (mid, hi) pairwise into spare,
		// halving the run list in place; an odd last run has mid == hi == n
		// and is copied.
		out := runs[:0]
		for r := 0; r+1 < len(runs); r += 2 {
			lo, mid, hi := runs[r], runs[r+1], runs[min(r+2, len(runs)-1)]
			mergeKeys(spare[lo:hi], keys[lo:mid], keys[mid:hi])
			out = append(out, lo)
		}
		runs = append(out, n)
	}
	w.sortKeys, w.sortSpare, w.sortRuns = keys, spare, runs
	// keys[i].idx is the record that belongs at i: follow each cycle of
	// that permutation once, so every displaced record moves exactly once.
	for i := range keys {
		if int(keys[i].idx) == i {
			continue
		}
		held := merged[i]
		for j := i; ; {
			k := int(keys[j].idx)
			keys[j].idx = int32(j)
			if k == i {
				merged[j] = held
				break
			}
			merged[j] = merged[k]
			j = k
		}
	}
}

// mergeKeys merges the ordered runs a and b into dst (len(a)+len(b)),
// taking from a on ties.
func mergeKeys(dst, a, b []effKey) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && !b[j].before(a[i])) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// applyMerged runs the five apply passes over one sorted merged
// sequence (see applyEffects).
func (w *World) applyMerged(merged []Effect, conflicts *int) {
	// Owner-side cross-shard validation needs this tick's committed
	// assignments (remote.go); barrier exchange applies are excluded —
	// their writers were validated against this set, they don't feed it.
	if w.tickWrites != nil && !w.inExchange {
		for i := range merged {
			e := &merged[i]
			if e.Kind == EffectSet && e.Target < provBase {
				w.tickWrites[readCell{id: e.Target, col: e.Col}] = struct{}{}
			}
		}
	}
	// Spawns: allocate real ids in deterministic order.
	var prov map[entity.ID]entity.ID
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectSpawn {
			continue
		}
		id, err := w.Spawn(e.Col, e.Pos)
		if err != nil {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		if prov == nil {
			prov = make(map[entity.ID]entity.ID)
		}
		prov[e.Target] = id
	}
	resolve := func(id entity.ID) (entity.ID, bool) {
		if id < provBase {
			return id, true
		}
		real, ok := prov[id]
		return real, ok
	}

	w.applyAssignColumnar(merged, resolve, conflicts)

	// Despawns, deduplicated.
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectDespawn {
			continue
		}
		id, ok := resolve(e.Target)
		if !ok {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		if w.dir.find(id) == nil {
			*conflicts++ // raced with another despawn
			w.noteConflict(e.Src)
			continue
		}
		if err := w.Despawn(id); err != nil {
			*conflicts++
			w.noteConflict(e.Src)
		}
	}

	// Event posts queue for the trigger drain that follows apply.
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectPost {
			continue
		}
		id, ok := resolve(e.Target)
		if !ok {
			*conflicts++
			w.noteConflict(e.Src)
			continue
		}
		w.Post(e.Col, id, e.Val)
	}
}
