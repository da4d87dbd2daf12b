package world

// Cross-shard effect forwarding: ghost writes as first-class effect
// records. A behavior that targets a ghost mirror — set, add, despawn or
// post against an entity another shard owns — used to apply against the
// local copy, which the owner's next re-ship silently clobbered. Under
// forwarding, the apply phase partitions the merged effect sequence by
// ownership instead: records whose target has a ghost route are not
// applied locally but sealed into a deterministic, source-ordered
// RemoteEffectBatch per owning shard. The shard runtime carries the
// batches across the tick barrier, and each owner merges the foreign
// records ahead of its next tick in (generation, source shard, source
// id, emission order) — so a remote write lands exactly one tick late,
// with semantics that are a pure function of the records and therefore
// invariant across shard counts.
//
// Under ConflictOCC the partition works at invocation granularity:
// a border invocation (one with at least one remote record) is withheld
// whole — its remote records ship with the invocation's ghost read-set
// attached, its local records are held back, and both sides commit at
// the barrier only if the owner's validation passes. The owner
// invalidates a foreign invocation when its recorded reads overlap
// either the barrier merge's surviving writes (txn.Invalidated) or a
// cell the owner's own tick committed (txn.InvalidatedByCommits —
// local commits always win). Invalidated invocations are re-run on
// their originating shard against freshly re-shipped mirrors, bounded
// by Config.EffectRetryCap.
//
// Batch lifetime: a world keeps one RemoteEffectBatch per owner, and its
// capacity, for its whole life. TakeOutbound hands the batches to the
// runtime, which encodes them before the world next forwards (a barrier
// re-run or the next tick's apply); that first forward empties them. The
// runtime decodes every source's batch into one reused batch, so
// QueueForeign copies records and read-sets into the world's inbound
// arrays. Held local halves, per-owner read-sets and the barrier's
// sorted exchange (built once, read by ValidateForeign and
// ExchangeApply) are arenas and ranges too: in steady state the path
// allocates nothing.
//
// Forwarding is inert until the shard runtime installs ghost routes
// (SetGhostRoute): with no routes every apply path is bit-identical to
// the pre-forwarding pipeline, so single worlds and manual SetGhost
// users pay nothing.

import (
	"cmp"
	"math"
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/txn"
)

// RemoteEffect is one forwarded record plus the tick it was generated
// on. Gen orders barrier merges when re-run records (which keep their
// original generation) meet fresh ones: older generations apply first,
// preserving the serial story of the invocation they came from.
type RemoteEffect struct {
	E   Effect
	Gen int64
}

// ForeignKey names one forwarded invocation globally: the shard it ran
// on, its source entity and the tick it was generated on. The id
// allocator never reuses entity ids and each source runs at most one
// invocation per tick, so the triple is unique among the records in
// flight at any barrier.
type ForeignKey struct {
	Shard int
	Src   entity.ID
	Gen   int64
}

// compare orders keys by (generation, source shard, source id) — the
// barrier's validation and re-run order.
func (k ForeignKey) compare(o ForeignKey) int {
	return cmp.Or(cmp.Compare(k.Gen, o.Gen), cmp.Compare(k.Shard, o.Shard), cmp.Compare(k.Src, o.Src))
}

// ForeignInvalidation is one owner-side validation verdict: the
// invalidated invocation plus how many times it has already re-run
// (the originating shard aborts it once Retries reaches the retry cap).
type ForeignInvalidation struct {
	Key     ForeignKey
	Retries int
}

// foreignInvoc is the OCC metadata riding along with a border
// invocation's remote records: its identity and the part of its
// recorded read-set that names cells the receiving owner owns, as a
// range of its batch's reads (of World.inReads once queued).
type foreignInvoc struct {
	key            ForeignKey
	retries        int
	readLo, readHi int
}

// RemoteEffectBatch is everything one world forwards to one owning
// shard at a barrier: the remote records in deterministic source order,
// plus (under ConflictOCC) the per-invocation validation metadata, whose
// read-sets share one arena.
type RemoteEffectBatch struct {
	Recs   []RemoteEffect
	invocs []foreignInvoc
	reads  []readCell
}

// foreignRec is one inbound record tagged with its origin, the unit the
// barrier merge sorts.
type foreignRec struct {
	e     Effect
	gen   int64
	shard int
}

// heldInvoc is the local half of a border invocation under ConflictOCC:
// records targeting entities this world owns, withheld from the tick
// apply so the invocation commits atomically at the barrier (or not at
// all, when the owner invalidates it). The records are a range of
// World.heldRecs.
type heldInvoc struct {
	src     entity.ID
	gen     int64
	retries int
	lo, hi  int
}

// fwdOwner identifies one invocation in the barrier merge's write-set:
// (source shard, source entity).
type fwdOwner struct {
	shard int
	src   entity.ID
}

// invocTag carries the (generation, retry count) a re-run's emissions
// are stamped with.
type invocTag struct {
	gen     int64
	retries int
}

// SetShardIndex tells the world which shard of a sharded runtime it is;
// forwarded invocation metadata is stamped with it. Single worlds keep
// the zero default.
func (w *World) SetShardIndex(i int) { w.shardIdx = i }

// SetGhostRoute installs owner routing for a ghost mirror: effect
// records targeting id will be forwarded to shard owner instead of
// applied locally. The shard runtime refreshes routes at every barrier
// alongside the mirrors themselves; Despawn and SetGhost(id, false)
// remove the route. It reports false, changing nothing, unless id is a
// ghost mirror this world holds and owner is a shard index.
func (w *World) SetGhostRoute(id entity.ID, owner int) bool {
	rec := w.dir.find(id)
	if rec == nil || !rec.ghost || owner < 0 || owner > math.MaxInt32 {
		return false
	}
	w.dir.setRoute(rec, int32(owner))
	return true
}

// GhostRoute returns the owning shard a ghost mirror routes to, if a
// route is installed.
func (w *World) GhostRoute(id entity.ID) (int, bool) {
	if rec := w.dir.find(id); rec != nil && rec.owner != noRoute {
		return int(rec.owner), true
	}
	return 0, false
}

// forwardingOn reports whether any ghost routes are installed. All
// forwarding hooks are gated on it, so a world without routes runs the
// pre-forwarding pipeline bit-identically.
func (w *World) forwardingOn() bool { return w.dir.routes > 0 }

// routeMemo resolves records' owning shards for one pass over a
// source-ordered sequence, remembering the last target probed.
// ownSrc marks a sequence whose sources are entities this world owns —
// the behavior phase's and the barrier re-runs' — so a record targeting
// its own source needs no probe at all.
type routeMemo struct {
	w      *World
	ownSrc bool
	id     entity.ID
	owner  int
	ok     bool
	valid  bool
}

// remoteOwner resolves the owning shard of a record's target. Spawns
// always materialize locally, and provisional targets name entities
// this invocation is spawning here; an owned source is never a routed
// ghost.
func (m *routeMemo) remoteOwner(e *Effect) (int, bool) {
	if e.Kind == EffectSpawn || e.Target >= provBase || (m.ownSrc && e.Target == e.Src) {
		return 0, false
	}
	if !m.valid || m.id != e.Target {
		m.id, m.valid = e.Target, true
		m.owner, m.ok = m.w.GhostRoute(e.Target)
	}
	return m.owner, m.ok
}

// outboundFor returns (creating on first use) the batch bound for owner.
// The first forward after a TakeOutbound empties every batch: the
// runtime has encoded what it took by then.
func (w *World) outboundFor(owner int) *RemoteEffectBatch {
	if w.outbound == nil {
		w.outbound = make(map[int]*RemoteEffectBatch)
	}
	if !w.outLive {
		for _, b := range w.outbound {
			b.Recs, b.invocs, b.reads = b.Recs[:0], b.invocs[:0], b.reads[:0]
		}
		w.outLive = true
	}
	b := w.outbound[owner]
	if b == nil {
		b = &RemoteEffectBatch{}
		w.outbound[owner] = b
	}
	return b
}

// partitionRemote is the ConflictLastWrite partition: remote records
// move individually from the merged sequence into the per-owner
// outbound batches (stamped with the current tick as their generation);
// everything else stays. The returned slice aliases merged's prefix.
func (w *World) partitionRemote(merged []Effect) []Effect {
	out := merged[:0]
	routes := routeMemo{w: w, ownSrc: w.applyRemoteRerun}
	for i := range merged {
		e := &merged[i]
		if owner, ok := routes.remoteOwner(e); ok {
			b := w.outboundFor(owner)
			b.Recs = append(b.Recs, RemoteEffect{E: *e, Gen: w.tick})
			w.statForwarded++
			continue
		}
		out = append(out, *e)
	}
	return out
}

// partitionRemoteInvocs is the ConflictOCC partition: it walks merged
// in source-contiguous runs (one run per invocation — the sequence is
// sorted by source, or serially emitted) and withholds every border
// invocation whole. Remote records go to their owners' batches, local
// records to heldLocal; withMeta attaches the invocation's ForeignKey
// and owner-filtered read-set to each touched batch so the owner can
// validate and request a re-run (the behavior phase and barrier re-runs
// pass true; trigger rounds have no cross-barrier re-run context and
// forward without metadata). tag supplies the (generation, retries)
// stamp per source. The returned slice aliases merged's prefix.
func (w *World) partitionRemoteInvocs(merged []Effect, bufs []*EffectBuffer, withMeta bool, tag func(entity.ID) (int64, int)) []Effect {
	// The withMeta callers are exactly those whose sources are owned
	// entities (trigger rounds key theirs by round and match).
	routes := routeMemo{w: w, ownSrc: withMeta}
	anyRemote := false
	for i := range merged {
		if _, ok := routes.remoteOwner(&merged[i]); ok {
			anyRemote = true
			break
		}
	}
	if !anyRemote {
		return merged
	}
	if withMeta {
		w.buildReadIndex(bufs)
	}
	out := merged[:0]
	for i := 0; i < len(merged); {
		j := i + 1
		for j < len(merged) && merged[j].Src == merged[i].Src {
			j++
		}
		border := false
		for k := i; k < j; k++ {
			if _, ok := routes.remoteOwner(&merged[k]); ok {
				border = true
				break
			}
		}
		if !border {
			out = append(out, merged[i:j]...)
			i = j
			continue
		}
		src := merged[i].Src
		gen, retries := tag(src)
		owners := w.fwdOwners[:0]
		lo := len(w.heldRecs)
		for k := i; k < j; k++ {
			e := &merged[k]
			if owner, ok := routes.remoteOwner(e); ok {
				b := w.outboundFor(owner)
				b.Recs = append(b.Recs, RemoteEffect{E: *e, Gen: gen})
				if !slices.Contains(owners, owner) {
					owners = append(owners, owner)
				}
				w.statForwarded++
				continue
			}
			w.heldRecs = append(w.heldRecs, *e)
		}
		w.fwdOwners = owners
		if hi := len(w.heldRecs); hi > lo {
			w.heldLocal = append(w.heldLocal, heldInvoc{src: src, gen: gen, retries: retries, lo: lo, hi: hi})
			w.exReady = false
		}
		if withMeta {
			slices.Sort(owners)
			reads := w.occReadIdx[src]
			for _, owner := range owners {
				b := w.outboundFor(owner)
				rlo := len(b.reads)
				for _, c := range reads {
					if o, ok := w.GhostRoute(c.id); ok && o == owner {
						b.reads = append(b.reads, c)
					}
				}
				b.invocs = append(b.invocs, foreignInvoc{
					key:     ForeignKey{Shard: w.shardIdx, Src: src, Gen: gen},
					retries: retries,
					readLo:  rlo,
					readHi:  len(b.reads),
				})
			}
		}
		i = j
	}
	return out
}

// TakeOutbound hands the per-owner batches accumulated since the last
// take to the shard runtime. Nil when nothing was forwarded since. The
// batches are the world's own and stay valid until it next forwards
// (a barrier re-run or the next tick's apply), which empties them.
func (w *World) TakeOutbound() map[int]*RemoteEffectBatch {
	if !w.outLive {
		return nil
	}
	w.outLive = false
	return w.outbound
}

// QueueForeign enqueues one source shard's batch for this barrier's
// validate/merge, copying it: the caller may decode the next source's
// batch into b. srcShard is authoritative for the records' origin
// ordering (and overwrites whatever the sender stamped).
func (w *World) QueueForeign(srcShard int, b *RemoteEffectBatch) {
	for i := range b.Recs {
		r := &b.Recs[i]
		w.inRecs = append(w.inRecs, foreignRec{e: r.E, gen: r.Gen, shard: srcShard})
	}
	for i := range b.invocs {
		inv := b.invocs[i]
		inv.key.Shard = srcShard
		lo := len(w.inReads)
		w.inReads = append(w.inReads, b.reads[inv.readLo:inv.readHi]...)
		inv.readLo, inv.readHi = lo, len(w.inReads)
		w.inInvocs = append(w.inInvocs, inv)
	}
	w.exReady = false
}

// sortForeignRecs orders barrier records by (generation, source shard,
// source id, emission order) — the one deterministic exchange order.
func sortForeignRecs(recs []foreignRec) {
	slices.SortFunc(recs, func(a, b foreignRec) int {
		return cmp.Or(
			cmp.Compare(a.gen, b.gen),
			cmp.Compare(a.shard, b.shard),
			cmp.Compare(a.e.Src, b.e.Src),
			cmp.Compare(a.e.Seq, b.e.Seq),
		)
	})
}

// buildExchangeRecs combines this barrier's foreign records with the
// world's own held border-invocation records into the exchange order.
// The result aliases w.exRecs; it is built once a barrier (validation
// and the exchange merge share it) and rebuilt after either input
// changes.
func (w *World) buildExchangeRecs() []foreignRec {
	if w.exReady {
		return w.exRecs
	}
	recs := w.exRecs[:0]
	for i := range w.heldLocal {
		h := &w.heldLocal[i]
		for _, e := range w.heldRecs[h.lo:h.hi] {
			recs = append(recs, foreignRec{e: e, gen: h.gen, shard: w.shardIdx})
		}
	}
	recs = append(recs, w.inRecs...)
	sortForeignRecs(recs)
	w.exRecs, w.exReady = recs, true
	return recs
}

// ValidateForeign runs the owner side of cross-shard OCC for this
// barrier: each queued foreign invocation is invalidated when its
// recorded reads overlap a cell this world's own tick committed a
// write to (local commits always win — the reader saw a stale mirror),
// or a cell some other invocation's surviving write in the barrier
// merge owns (txn.Invalidated over the exchange write-set, which
// includes the world's own held border writes). Verdicts are returned
// for the runtime to union across owners and route back to the
// originating shards; the caller must collect every world's verdicts
// before any ExchangeApply runs. The slice is the world's scratch, valid
// until the next ValidateForeign.
func (w *World) ValidateForeign() []ForeignInvalidation {
	if len(w.inInvocs) == 0 {
		return nil
	}
	recs := w.buildExchangeRecs()
	ws := &w.fwdWrites
	ws.Reset()
	for i := range recs {
		e := &recs[i].e
		if e.Kind == EffectSet && e.Target < provBase {
			ws.Note(readCell{id: e.Target, col: e.Col}, fwdOwner{shard: recs[i].shard, src: e.Src})
		}
	}
	slices.SortFunc(w.inInvocs, func(a, b foreignInvoc) int { return a.key.compare(b.key) })
	out := w.verdicts[:0]
	for i := range w.inInvocs {
		inv := &w.inInvocs[i]
		self := fwdOwner{shard: inv.key.Shard, src: inv.key.Src}
		reads := w.inReads[inv.readLo:inv.readHi]
		if txn.InvalidatedByCommits(reads, w.tickWrites) ||
			txn.Invalidated(self, reads, ws) {
			out = append(out, ForeignInvalidation{Key: inv.key, Retries: inv.retries})
		}
	}
	w.verdicts = out
	w.pendRemoteInval += len(out)
	return out
}

// ExchangeApply commits this barrier's exchange at one world: the
// foreign records plus the world's own held border-invocation records,
// minus every invocation in invalid, merged in exchange order and
// applied through the ordinary apply passes. It returns the number of
// foreign records merged; conflicts (e.g. a record against an entity
// despawned since the route was taken) fold into the next tick's stats.
// Consumes the inbound and held state.
func (w *World) ExchangeApply(invalid map[ForeignKey]struct{}) int {
	if len(w.inRecs) == 0 && len(w.heldLocal) == 0 {
		w.inInvocs, w.inReads = w.inInvocs[:0], w.inReads[:0]
		return 0
	}
	recs := w.buildExchangeRecs()
	effs := w.exEffects[:0]
	foreign := 0
	for i := range recs {
		r := &recs[i]
		if len(invalid) > 0 {
			if _, bad := invalid[ForeignKey{Shard: r.shard, Src: r.e.Src, Gen: r.gen}]; bad {
				continue
			}
		}
		if r.shard != w.shardIdx {
			foreign++
		}
		effs = append(effs, r.e)
	}
	w.exEffects = effs
	conflicts := 0
	w.inExchange = true
	w.applyMerged(effs, &conflicts)
	w.inExchange = false
	w.pendConflicts += conflicts
	w.pendRemoteMerged += foreign
	w.pendEffects += len(effs)
	w.inRecs, w.inInvocs, w.inReads = w.inRecs[:0], w.inInvocs[:0], w.inReads[:0]
	w.heldLocal, w.heldRecs = w.heldLocal[:0], w.heldRecs[:0]
	w.exReady = false
	return foreign
}

// RerunForeign re-executes this world's invalidated border invocations
// at the barrier, after the owners' merges have been re-shipped into
// fresh mirrors. Re-runs go serially in (generation, origin, source)
// order on worker slot 0's plans; an invocation that has
// exhausted the retry cap — or errors, or whose entity despawned —
// aborts. Emissions partition again: a re-run's remote records keep the
// invocation's original generation (so they merge ahead of the next
// tick's records at the owner) with an incremented retry count, its
// local records hold for the next barrier, and purely local results
// apply immediately. All accounting folds into the next tick's stats.
func (w *World) RerunForeign(reruns []ForeignInvalidation) {
	if len(reruns) == 0 {
		return
	}
	slices.SortFunc(reruns, func(a, b ForeignInvalidation) int { return a.Key.compare(b.Key) })
	w.ensureWorkers(1)
	buf := w.workerBufs[0]
	buf.reset()
	rcap := w.effectRetryCap()
	if w.rerunTags == nil {
		w.rerunTags = make(map[entity.ID]invocTag)
	}
	tags := w.rerunTags
	clear(tags)
	for i := range reruns {
		r := &reruns[i]
		if r.Retries >= rcap {
			w.pendAborts++
			continue
		}
		w.pendRetries++
		mark := buf.begin(r.Key.Src)
		fuel, err := w.rerunBehavior(r.Key.Src)
		w.pendFuel += fuel
		if err != nil {
			buf.rollback(mark)
			w.pendAborts++
			continue
		}
		tags[r.Key.Src] = invocTag{gen: r.Key.Gen, retries: r.Retries + 1}
	}
	buf.closeInvoc()
	merged := buf.effects
	if len(merged) == 0 {
		return
	}
	if w.forwardingOn() {
		merged = w.partitionRemoteInvocs(merged, w.workerBufs[:1], true, func(src entity.ID) (int64, int) {
			t := tags[src]
			return t.gen, t.retries
		})
	}
	if len(merged) == 0 {
		return
	}
	w.sortEffects(merged)
	// Local writes committed here land after this barrier's re-ship, so
	// next tick's foreign readers of these cells see pre-re-run mirrors;
	// carry the cells into the next tick's committed-write set so those
	// readers invalidate.
	if w.tickWrites != nil {
		for i := range merged {
			e := &merged[i]
			if e.Kind == EffectSet && e.Target < provBase {
				w.pendWrites = append(w.pendWrites, readCell{id: e.Target, col: e.Col})
			}
		}
	}
	conflicts := 0
	w.inExchange = true
	w.applyMerged(merged, &conflicts)
	w.inExchange = false
	w.pendConflicts += conflicts
	w.pendEffects += len(merged)
}

// foldPending folds the accounting of the barrier work done since the
// last tick — exchange merges, validation verdicts, re-runs — into the
// new tick's stats, and rotates the committed-write set the owner-side
// validation reads.
func (w *World) foldPending(st *TickStats) {
	if w.tickWrites != nil {
		clear(w.tickWrites)
	} else if w.occEnabled() && w.forwardingOn() {
		w.tickWrites = make(map[readCell]struct{})
	}
	if w.tickWrites != nil {
		for _, c := range w.pendWrites {
			w.tickWrites[c] = struct{}{}
		}
	}
	w.pendWrites = w.pendWrites[:0]
	st.EffectsRemoteMerged = w.pendRemoteMerged
	st.RemoteInvalidations = w.pendRemoteInval
	st.Effects += w.pendEffects
	st.EffectConflicts += w.pendConflicts
	st.EffectRetries += w.pendRetries
	st.EffectAborts += w.pendAborts
	st.FuelUsed += w.pendFuel
	w.pendRemoteMerged, w.pendRemoteInval, w.pendEffects = 0, 0, 0
	w.pendConflicts, w.pendRetries, w.pendAborts = 0, 0, 0
	w.pendFuel = 0
}

// resetForwarding clears the forwarding state beside the routes (which
// go with the directory); ResetState (and through it snapshot Restore)
// uses it — in-flight barrier records are not part of a snapshot.
func (w *World) resetForwarding() {
	w.outbound, w.outLive = nil, false
	w.inRecs = nil
	w.inInvocs = nil
	w.inReads = nil
	w.heldLocal = nil
	w.heldRecs = nil
	w.tickWrites = nil
	w.pendWrites = nil
	w.exRecs, w.exReady = nil, false
	w.exEffects = nil
	w.verdicts = nil
	w.statForwarded = 0
	w.pendRemoteMerged, w.pendRemoteInval, w.pendEffects = 0, 0, 0
	w.pendConflicts, w.pendRetries, w.pendAborts = 0, 0, 0
	w.pendFuel = 0
}
