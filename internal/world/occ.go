package world

// The OCC conflict policy: serializable resolution of conflicting
// assignments, built on the generalized internal/txn validate/retry
// core. The state-effect pattern resolves write-write conflicts by fiat
// (deterministic last-write-wins), which silently drops the losers'
// writes — the classic lost update when the loser computed its value
// from a cell the winner rewrote. Under Config.ConflictPolicy ==
// ConflictOCC the apply phase instead behaves like a bounded optimistic
// scheduler:
//
//	detect:   the sorted merge yields, per (entity, column) cell, the
//	          surviving writer (txn.WriteSet records the owner; noting
//	          in merge order makes the last write the owner). Any
//	          invocation with a non-surviving EffectSet is a loser.
//	validate: a loser whose recorded read-set overlaps a cell some
//	          other invocation's surviving write owns (txn.Invalidated)
//	          computed against stale state — last-write-wins would not
//	          serialize, so it must re-run. A loser whose reads are
//	          untouched serializes fine *before* the winner and keeps
//	          its last-write-wins outcome.
//	withhold: invalidated invocations re-run whole, so every effect
//	          they emitted this round (sets, adds, spawns, posts) is
//	          withheld from the apply — re-running them later must not
//	          double their side effects.
//	re-run:   the invalidated invocations re-execute serially in
//	          ascending source order on worker slot 0's plans.
//	          Emissions buffer as effects, so every re-run in a round
//	          reads the same post-apply state; the
//	          round's buffer then feeds the same detect/validate/apply
//	          pipeline, and any invocations invalidated *again* (three
//	          writers racing one cell need two rounds) carry into the
//	          next round, up to Config.EffectRetryCap (txn.RetryLoop).
//	abort:    invocations still invalidated at the cap — or erroring
//	          during a re-run — abort: their effects are dropped and
//	          counted in TickStats.EffectAborts.
//
// Everything above is a pure function of the deterministic merge order
// and the per-invocation read logs, so world state stays hash-invariant
// across any Shards × Workers combination; on workloads with no
// conflicting assignments the policy is byte-identical to lastwrite.

import (
	"time"

	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/txn"
)

// rerunFn re-executes one invocation (identified by its effect source
// id) against current world state. Implementations must execute on
// worker slot 0's plans — the OCC loop brackets each call with
// begin/rollback on workerBufs[0], which those emit into. It returns
// the fuel consumed and any execution error.
type rerunFn func(src entity.ID) (int64, error)

// applyEffectsOCC is the ConflictOCC counterpart of applyEffects: one
// deterministic merge, an OCC validate pass, and bounded serial re-run
// rounds. effects/conflicts receive the applied-record and dropped-
// record tallies exactly like applyEffects (withheld invocations'
// records are not counted as applied); retries, aborts and re-run fuel
// accumulate into st.
func (w *World) applyEffectsOCC(bufs []*EffectBuffer, effects, conflicts *int, st *TickStats, rerun rerunFn) {
	for _, b := range bufs {
		b.closeInvoc()
	}
	merged := w.collectMerge(bufs)
	if w.forwardingOn() {
		// Border invocations (any remote record) are withheld whole and
		// excluded from local validation: their remote half ships with
		// read-set metadata when the phase can re-run them cross-barrier
		// (the behavior phase), without it otherwise (trigger rounds).
		merged = w.partitionRemoteInvocs(merged, bufs, w.applyRemoteRerun,
			func(entity.ID) (int64, int) { return w.tick, 0 })
	}
	if len(merged) == 0 && w.physNext == len(w.physList) {
		return
	}
	invalid := w.occInvalidate(merged, bufs)
	if len(invalid) == 0 {
		// No conflicting assignment read stale state: identical to
		// lastwrite, on the identical code path.
		*effects += len(merged)
		w.applyMerged(merged, conflicts)
		return
	}
	applied := w.filterExcluding(merged, invalid)
	*effects += len(applied)
	w.applyMerged(applied, conflicts)

	buf := w.workerBufs[0]
	_, completed := txn.RetryLoop(w.effectRetryCap(), func(round int) bool {
		rt0 := time.Now()
		st.EffectRetries += len(invalid)
		w.noteRetries(invalid)
		buf.reset()
		for _, src := range invalid {
			mark := buf.begin(src)
			fuel, err := rerun(src)
			st.FuelUsed += fuel
			if err != nil {
				// The invocation cannot re-run (script error, fuel
				// exhaustion, its entity despawned mid-apply): abort it.
				buf.rollback(mark)
				st.EffectAborts++
				w.noteAbort(src)
			}
		}
		buf.closeInvoc()
		// Serial ascending-source re-runs emit an already-sorted
		// sequence; no second collectMerge (whose scratch still backs
		// the outer merged slice) is needed.
		roundMerged := buf.effects
		if w.forwardingOn() {
			roundMerged = w.partitionRemoteInvocs(roundMerged, w.workerBufs[:1], w.applyRemoteRerun,
				func(entity.ID) (int64, int) { return w.tick, 0 })
		}
		invalid = w.occInvalidate(roundMerged, w.workerBufs[:1])
		roundApplied := roundMerged
		if len(invalid) > 0 {
			roundApplied = w.filterExcluding(roundMerged, invalid)
		}
		*effects += len(roundApplied)
		w.applyMerged(roundApplied, conflicts)
		w.trace.Span(obs.SpanOCCRetry, w.tick, round, rt0)
		return len(invalid) == 0
	})
	if !completed {
		// Retry cap exhausted: the still-invalid invocations abort with
		// their final-round effects withheld (bounded-OCC rollback).
		st.EffectAborts += len(invalid)
		w.noteAborts(invalid)
	}
}

// occInvalidate computes the invocations that must re-run for one
// sorted merged sequence: losers of conflicting assignments whose
// recorded read-set overlaps a cell another invocation's surviving
// write owns. The returned slice (ascending source order, aliasing
// w.occInvalid) is valid until the next call.
//
// Detection runs on raw effect targets: provisional spawn ids are
// deterministic functions of their emitting source, so they can never
// carry a cross-invocation conflict, and nothing can have read them.
// Only EffectSet records conflict — adds commute, and despawn/post
// races keep their existing conflict accounting.
func (w *World) occInvalidate(merged []Effect, bufs []*EffectBuffer) []entity.ID {
	invalid := w.occInvalid[:0]
	w.occInvalid = invalid
	ws := &w.occWrites
	ws.Reset()
	for i := range merged {
		e := &merged[i]
		if e.Kind == EffectSet {
			ws.Note(readCell{id: e.Target, col: e.Col}, e.Src)
		}
	}
	if ws.Len() == 0 {
		return invalid
	}
	// Cheap pre-pass: most applies have no losing assignment at all, and
	// then the per-invocation read index never needs building.
	anyLoser := false
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectSet {
			continue
		}
		if owner, _ := ws.Owner(readCell{id: e.Target, col: e.Col}); owner != e.Src {
			anyLoser = true
			break
		}
	}
	if !anyLoser {
		return invalid
	}
	w.buildReadIndex(bufs)
	if w.occSeen == nil {
		w.occSeen = make(map[entity.ID]struct{})
	}
	clear(w.occSeen)
	for i := range merged {
		e := &merged[i]
		if e.Kind != EffectSet {
			continue
		}
		owner, _ := ws.Owner(readCell{id: e.Target, col: e.Col})
		if owner == e.Src {
			continue
		}
		if _, dup := w.occSeen[e.Src]; dup {
			continue
		}
		w.occSeen[e.Src] = struct{}{}
		if txn.Invalidated(e.Src, w.occReadIdx[e.Src], ws) {
			invalid = append(invalid, e.Src)
		}
	}
	w.occInvalid = invalid
	return invalid
}

// buildReadIndex rebuilds the source → read-set index from the buffers'
// sealed invocation records. Entries alias the buffers' read logs and
// stay valid until those buffers reset.
func (w *World) buildReadIndex(bufs []*EffectBuffer) {
	if w.occReadIdx == nil {
		w.occReadIdx = make(map[entity.ID][]readCell)
	}
	clear(w.occReadIdx)
	for _, b := range bufs {
		for i := range b.invocs {
			inv := &b.invocs[i]
			if inv.open || inv.readHi <= inv.readLo {
				continue
			}
			w.occReadIdx[inv.src] = b.reads[inv.readLo:inv.readHi]
		}
	}
}

// filterExcluding compacts merged into the world's filter scratch,
// dropping every effect whose source is in exclude. Velocity physics is
// no record, so no withhold reaches it: it integrates in the first
// apply, and a re-run that rewrites x/y lands after it — the serial
// story, physics first, then the re-run behavior computing from the
// integrated position. The result aliases w.occFilterBuf and is valid
// until the next call.
func (w *World) filterExcluding(merged []Effect, exclude []entity.ID) []Effect {
	if w.occExclude == nil {
		w.occExclude = make(map[entity.ID]struct{})
	}
	clear(w.occExclude)
	for _, src := range exclude {
		w.occExclude[src] = struct{}{}
	}
	out := w.occFilterBuf[:0]
	for i := range merged {
		e := &merged[i]
		if _, drop := w.occExclude[e.Src]; drop {
			continue
		}
		out = append(out, *e)
	}
	w.occFilterBuf = out
	return out
}
