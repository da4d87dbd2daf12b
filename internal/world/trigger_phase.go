package world

// The effect-aware trigger drain: the state-effect pattern extended
// through the trigger phase. Each cascade round runs as its own mini
// tick —
//
//	match:  the engine pairs the round's queued events with registered
//	        rules in deterministic (event order, firing order) source
//	        order, executing nothing;
//	cond:   the conditions run as read-only queries over the round-start
//	        state, the matches chunked across the Workers pool (anything
//	        a condition emits is dropped — conditions are queries);
//	resolve: one serial pass in source order consumes Once rules and
//	        counts activations;
//	act:    the firing actions run over the fires chunked the same way,
//	        each invocation atomic in its worker's EffectBuffer, keyed by
//	        a deterministic per-round source id;
//	apply:  one deterministic merge applies the round's effects and
//	        queues the events they posted, which form the next round.
//
// Because conditions read only frozen state and the apply order is
// keyed by (event seq, rule seq) — never by worker — the same seed
// yields an identical world for any Shards × Workers combination, and
// trigger-heavy cascades batch and parallelize exactly like behaviors.
//
// They also execute like behaviors: a content-pack rule's condition and
// action are gslplan plans (compiled once per pack by content.Compile,
// bound here per worker slot), and the cond and act passes run them
// set-at-a-time — each worker runs each rule's side once over its
// matches of that rule, the events' amounts a per-lane argument
// (runLanes, batch.go). A lane that errors, runs out of fuel or belongs
// to a per-entity plan re-runs on Plan.Run, which alone decides its
// outcome; the OCC re-run path runs its invocations on Run too.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/script"
	"gamedb/internal/trigger"
)

// boundTrigger is a content-pack rule as the effect-aware drain runs
// it: its two sides plus the rule's profile entry.
type boundTrigger struct {
	name string
	src  *content.CompiledTrigger
	cond *boundFn // nil = unconditional
	act  *boundFn

	// prof is the rule's "trigger/<name>" profile entry, resolved once
	// when the rule is first matched (nil with profiling off — every use
	// is nil-safe). Caching it here keeps the act fan-out free of
	// profiler map lookups.
	prof *obs.ProfEntry
}

// triggerRoundStride separates the per-round source-id ranges of the
// trigger phase. A match's source id is (round+1)*stride + matchIndex:
// within a round the merge order reproduces (event seq, rule seq), and
// across rounds the per-invocation rand streams differ. maxSpawnsPerCall
// × the largest practical source id stays far below provBase.
const triggerRoundStride entity.ID = 1 << 20

// triggerSrc keys one trigger match's effect stream and rand stream.
func triggerSrc(round, mi int) entity.ID {
	return entity.ID(round+1)*triggerRoundStride + entity.ID(mi)
}

// ensureTriggerSlots grows one bound rule's per-slot executors to n
// workers. Creation is demand-driven — only rules actually matched in a
// round grow, so a rule whose event never fires never allocates.
func (w *World) ensureTriggerSlots(bt *boundTrigger, n int) {
	if w.prof != nil && bt.prof == nil {
		bt.prof = w.prof.Entry("trigger/" + bt.name)
	}
	bt.act.grow(w, n)
	if bt.cond != nil {
		bt.cond.grow(w, n)
	}
}

// runTrigger executes one side of a content rule for one matched event
// on worker slot wi, inside the invocation the caller opened with
// workerBufs[wi].begin.
func (w *World) runTrigger(f *boundFn, wi int, ev *trigger.Event) (entity.Value, int64, error) {
	return f.run(w, wi, entity.Int(int64(ev.Entity)), ev.Amount)
}

// drainTriggers runs the tick's trigger phase: effect-mode rounds until
// the queue is empty or the cascade limit trips (the remaining events
// are dropped and counted, and the engine stays usable).
func (w *World) drainTriggers(st *TickStats) error {
	workers := w.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	w.ensureWorkers(workers)

	var errs []error
	for round := 0; ; round++ {
		// Round batch and match buffers are world scratch the engine
		// refills, so popping and matching a round allocates nothing in
		// steady state.
		batch := w.trig.TakeRound(w.trigEvBuf)
		w.trigEvBuf = batch
		if len(batch) == 0 {
			break
		}
		if round >= w.trig.MaxCascade() {
			w.trig.NoteDropped(len(batch))
			errs = append(errs, fmt.Errorf("%w: %d queued events dropped",
				trigger.ErrCascadeDepth, len(batch)))
			break
		}
		st.TriggerRounds++
		matches := w.trig.MatchRound(w.trigMatchBuf, batch)
		w.trigMatchBuf = matches
		if len(matches) == 0 {
			continue
		}
		if len(matches) >= int(triggerRoundStride) {
			errs = append(errs, fmt.Errorf(
				"world: trigger round %d has %d matches (max %d)",
				round, len(matches), triggerRoundStride-1))
			break
		}
		errs = append(errs, w.runTriggerRound(round, matches, workers, st)...)
	}
	return errors.Join(errs...)
}

// trigTally is one worker slot's share of a round's accounting, so the
// parallel passes touch no shared counters: fuel burned and invocations
// re-run on the scalar plan.
type trigTally struct {
	fuel      int64
	fallbacks int
}

// condResult is one match's condition outcome from the parallel pass.
type condResult struct {
	ok   bool
	skip bool // fuel exhaustion: a skipped query, not an error
	err  error
}

// trigRound is the cascade round in flight: what every worker's cond and
// act chunk reads, and the per-match, per-fire and per-worker results
// they write, each slot by exactly one worker. Its slices are World
// scratch reused round to round, so a round allocates nothing in steady
// state.
type trigRound struct {
	round, workers int
	base           uint64 // the tick's rngBase
	matches        []trigger.Match
	// bound[mi] is match mi's content rule, resolved once per round so
	// the passes index instead of hashing.
	bound   []*boundTrigger
	conds   []condResult
	fires   []int
	actErrs []error
	actSkip []bool
	tallies []trigTally
}

// lane opens match mi's invocation of fn, one side of its rule, as
// buf.begin would open it.
func (r *trigRound) lane(w *World, mi int, fn *boundFn, v *invoc) laneSpec {
	*v = w.tickInvoc(r.base, triggerSrc(r.round, mi))
	ev := &r.matches[mi].Ev
	return laneSpec{fn: fn, prof: r.bound[mi].prof, subj: ev.Entity, amount: &ev.Amount}
}

// runTriggerRound executes one cascade round's matches through the
// cond / resolve / act / apply pipeline, appending per-rule errors
// (the round always completes).
func (w *World) runTriggerRound(round int, matches []trigger.Match, workers int, st *TickStats) []error {
	roundStart := time.Now()
	// The round starts from applied state; whatever the buffers held
	// has already been merged.
	bufs := w.workerBufs[:workers]
	for _, buf := range bufs {
		buf.reset()
	}
	r := &w.trigRnd
	r.round, r.workers, r.base, r.matches = round, workers, w.rngBase(), matches
	r.bound = r.bound[:0]
	for mi := range matches {
		bt := w.trigBound[matches[mi].Rule]
		w.ensureTriggerSlots(bt, workers)
		r.bound = append(r.bound, bt)
	}
	r.conds = slices.Grow(r.conds[:0], len(matches))[:len(matches)]
	clear(r.conds)
	r.tallies = slices.Grow(r.tallies[:0], workers)[:workers]
	clear(r.tallies)

	// Cond: read-only queries over the round-start state.
	w.trigJob.Run(workers, w.condChunkFn)

	// Resolve: serial, in source order. Consumes Once rules (first
	// passing match in source order wins) and counts activations.
	var errs []error
	r.fires = r.fires[:0]
	for mi := range matches {
		m := &matches[mi]
		// A Once rule consumed earlier in this round is dead: serial
		// execution would never have evaluated its condition, so its
		// speculative cond outcome — including an error or fuel skip —
		// is discarded, not counted.
		if !w.trig.Alive(*m) {
			continue
		}
		res := r.conds[mi]
		if res.skip {
			st.TriggerSkips++
			continue
		}
		if res.err != nil {
			st.TriggerErrors++
			errs = append(errs, res.err)
			continue
		}
		if !res.ok {
			continue
		}
		if !w.trig.Activate(*m) {
			continue
		}
		st.TriggerFired++
		r.fires = append(r.fires, mi)
	}

	// Act: the firing actions, each invocation atomic in its worker's
	// buffer, keyed by the match's deterministic source id — the
	// partitioning never shows.
	fires := r.fires
	r.actErrs = slices.Grow(r.actErrs[:0], len(fires))[:len(fires)]
	clear(r.actErrs)
	r.actSkip = slices.Grow(r.actSkip[:0], len(fires))[:len(fires)]
	clear(r.actSkip)
	if len(fires) > 0 {
		w.trigJob.Run(workers, w.actChunkFn)
	}
	for fi := range fires {
		if r.actSkip[fi] {
			st.TriggerSkips++
		}
		if r.actErrs[fi] != nil {
			st.TriggerErrors++
			errs = append(errs, r.actErrs[fi])
		}
	}
	for _, t := range r.tallies {
		st.FuelUsed += t.fuel
		w.statFallbacks += t.fallbacks
	}

	// Apply: one deterministic merge ends the round; the events it
	// posts become the next round's batch. Under the OCC conflict
	// policy, losing trigger actions that read cells the winning set
	// wrote re-run on worker slot 0's executors, looked up by the
	// match's deterministic source id.
	if w.prof != nil {
		// Round sources map back to their rule for conflict / retry /
		// abort attribution, by the same arithmetic the OCC re-run uses.
		base := entity.ID(round+1) * triggerRoundStride
		w.profOf = func(src entity.ID) *obs.ProfEntry {
			if mi := int(src - base); mi >= 0 && mi < len(matches) {
				return r.bound[mi].prof
			}
			return w.otherProf
		}
	}
	if w.occEnabled() {
		rerun := func(src entity.ID) (int64, error) {
			mi := int(src - entity.ID(round+1)*triggerRoundStride)
			if mi < 0 || mi >= len(matches) {
				return 0, fmt.Errorf("world: re-run source %d outside trigger round %d", src, round)
			}
			_, fuel, err := w.runTrigger(r.bound[mi].act, 0, &matches[mi].Ev)
			return fuel, err
		}
		w.applyEffectsOCC(bufs, &st.TriggerEffects, &st.TriggerConflicts, st, rerun)
	} else {
		w.applyEffects(bufs, &st.TriggerEffects, &st.TriggerConflicts)
	}
	w.profOf = nil
	w.trace.Span(obs.SpanTrigRnd, w.tick, round, roundStart)
	return errs
}

// condChunk is worker wi's share of the round's conditions: its
// contiguous chunk of the matches, run set-at-a-time, then walked in
// source order. A completed lane that returned a bool decides its match
// and commits nothing — conditions are queries; any other re-runs on the
// scalar plan, which alone decides the error text, the fuel and whether
// the match is skipped.
func (w *World) condChunk(wi int) {
	r := &w.trigRnd
	lo, hi := chunkRange(len(r.matches), r.workers, wi)
	if lo >= hi {
		return
	}
	buf := w.workerBufs[wi]
	tally := &r.tallies[wi]
	w.runLanes(wi, buf, hi-lo, func(p int, v *invoc) laneSpec {
		return r.lane(w, lo+p, r.bound[lo+p].cond, v)
	})
	for mi := lo; mi < hi; mi++ {
		bt := r.bound[mi]
		res := &r.conds[mi]
		if bt.cond == nil {
			res.ok = true
			continue
		}
		if ln := &buf.lanes[mi-lo]; ln.ok {
			if b, isBool := ln.val.AsBool(); isBool {
				res.ok = b
				tally.fuel += ln.fuel
				continue
			}
		}
		tally.fallbacks++
		mark := buf.begin(triggerSrc(r.round, mi))
		// Conditions contribute sampled wall time to the rule's profile
		// (they are queries — effects roll back, so the exact counters
		// come from the act pass alone).
		tSample, sampling := bt.prof.BeginSample()
		v, fuel, err := w.runTrigger(bt.cond, wi, &r.matches[mi].Ev)
		bt.prof.EndSample(tSample, sampling)
		buf.rollback(mark) // conditions are queries: discard any emission
		tally.fuel += fuel
		if err != nil {
			if isFuelErr(err) {
				res.skip = true
			} else {
				res.err = fmt.Errorf("trigger: rule %q condition: %w", bt.name, err)
			}
			continue
		}
		b, okB := v.AsBool()
		if !okB {
			res.err = fmt.Errorf("trigger %q condition returned %s", bt.name, script.FromEntity(v).Kind())
			continue
		}
		res.ok = b
	}
}

// actChunk is worker wi's share of the round's firing actions: its
// contiguous chunk of the fires, run set-at-a-time, then committed in
// source order. A completed lane commits what it staged as its
// invocation; any other re-runs on the scalar plan.
func (w *World) actChunk(wi int) {
	r := &w.trigRnd
	lo, hi := chunkRange(len(r.fires), r.workers, wi)
	if lo >= hi {
		return
	}
	buf := w.workerBufs[wi]
	tally := &r.tallies[wi]
	w.runLanes(wi, buf, hi-lo, func(p int, v *invoc) laneSpec {
		mi := r.fires[lo+p]
		return r.lane(w, mi, r.bound[mi].act, v)
	})
	for fi := lo; fi < hi; fi++ {
		mi := r.fires[fi]
		bt := r.bound[mi]
		reads0 := len(buf.reads)
		mark := buf.begin(triggerSrc(r.round, mi))
		if ln := &buf.lanes[fi-lo]; ln.ok {
			tally.fuel += ln.fuel
			buf.commitLane(int32(fi - lo))
			bt.prof.AddCall(ln.fuel, int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
			continue
		}
		tally.fallbacks++
		tSample, sampling := bt.prof.BeginSample()
		_, fuel, err := w.runTrigger(bt.act, wi, &r.matches[mi].Ev)
		bt.prof.EndSample(tSample, sampling)
		tally.fuel += fuel
		if err != nil {
			buf.rollback(mark)
			if isFuelErr(err) {
				r.actSkip[fi] = true
				bt.prof.AddSkip()
			} else {
				r.actErrs[fi] = fmt.Errorf("trigger: rule %q action: %w", bt.name, err)
				bt.prof.AddError()
			}
		}
		// Counted after rollback handling, like runBehaviors.
		bt.prof.AddCall(fuel, int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
	}
}
