package world

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/script"
)

// physTable is one entry of the tick's physics work list: a spatial
// table with velocity columns, their indices resolved once per tick.
type physTable struct {
	tab    *entity.Table
	vx, vy int
}

// workerStats accumulates one worker's share of the tick accounting so
// the parallel phase touches no shared counters. firstErr/errID record
// the chunk's lowest-entity-id behavior error: the roster is ascending,
// so the first error a worker hits is its chunk's lowest.
type workerStats struct {
	calls, errors, skips int
	compiled             int
	fuel                 int64
	firstErr             error
	errID                entity.ID
}

// Step advances one tick through the state-effect pipeline:
//
//   - query phase: behaviors and velocity physics run as read-only
//     queries over the frozen tick-start state, partitioned across
//     cfg.Workers goroutines; every write lands as a typed record in
//     the worker's EffectBuffer. Behavior invocations are atomic — an
//     invocation that errors or exhausts its fuel budget contributes
//     no effects.
//   - apply phase: the buffers merge deterministically (see
//     applyEffects) and write the tables set-at-a-time.
//   - trigger phase: queued events drain in cascade rounds, each round
//     its own mini tick — parallel read-only condition queries, actions
//     fanned across the same worker pool into effect buffers, one
//     deterministic apply (see trigger_phase.go). Config.DirectTriggers
//     selects the legacy single-threaded direct-write drain instead.
//
// Every phase reads only frozen state between applies and every merge
// order is independent of the partitioning, so the same seed yields an
// identical world for any Workers value.
func (w *World) Step() (TickStats, error) {
	w.tick++
	st := TickStats{Tick: w.tick, Entities: len(w.tableOf)}
	w.foldPending(&st)

	t0 := time.Now()
	workers := w.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	w.ensureWorkers(workers)

	// Roster snapshot: behavior attach/detach and spawns land next tick;
	// ghost mirrors run no behaviors.
	roster := w.rosterBuf[:0]
	for id := range w.behaviors {
		if !w.ghosts[id] {
			roster = append(roster, id)
		}
	}
	slices.Sort(roster)
	w.rosterBuf = roster

	// Physics work list: spatial tables carrying velocity columns. The
	// id snapshots are taken once so every worker chunks the same view,
	// and sorted (storage order drifts as handoffs and despawns swap rows)
	// so each chunk's deltas leave the worker as one ascending run for
	// sortEffects; snapshot buffers are reused tick-to-tick (AppendIDs,
	// not IDs).
	physTabs := w.physTabs[:0]
	physIDs := w.physIDs[:0]
	for _, name := range w.tableNames() {
		t := w.tables[name]
		s := t.Schema()
		if !isSpatial(s) {
			continue
		}
		vx, hasVX := s.Col("vx")
		vy, hasVY := s.Col("vy")
		if !hasVX || !hasVY {
			continue
		}
		physTabs = append(physTabs, physTable{tab: t, vx: vx, vy: vy})
		if len(physIDs) < cap(physIDs) {
			physIDs = physIDs[:len(physIDs)+1]
		} else {
			physIDs = append(physIDs, nil)
		}
		last := len(physIDs) - 1
		physIDs[last] = t.AppendIDs(physIDs[last][:0])
		slices.Sort(physIDs[last])
	}
	w.physTabs, w.physIDs = physTabs, physIDs

	stats := w.workerStats[:0]
	for i := 0; i < workers; i++ {
		stats = append(stats, workerStats{})
	}
	w.workerStats = stats

	// The chunks fan across the shared worker pool — no per-tick
	// goroutines. Chunk wi always emits into buffer wi, so results are
	// independent of which pool worker runs which chunk.
	w.pool.Par(workers, func(wi int) { w.runWorker(wi, workers) })
	var tickErr error
	var tickErrID entity.ID
	for i := range stats {
		st.ScriptCalls += stats[i].calls
		st.ScriptErrors += stats[i].errors
		st.ScriptSkips += stats[i].skips
		st.CompiledCalls += stats[i].compiled
		st.FuelUsed += stats[i].fuel
		// The tick's reported error is the lowest source entity id's,
		// not whichever worker finished last — diagnostics stay
		// identical for any Workers value.
		if stats[i].firstErr != nil && (tickErr == nil || stats[i].errID < tickErrID) {
			tickErr, tickErrID = stats[i].firstErr, stats[i].errID
		}
	}
	if tickErr != nil {
		w.LastScriptError = tickErr
	}
	st.QueryNS = time.Since(t0).Nanoseconds()
	w.trace.Span(obs.SpanQuery, w.tick, -1, t0)

	t1 := time.Now()
	if w.prof != nil {
		w.profOf = w.behaviorProf
	}
	// Only the behavior phase can re-run a border invocation across the
	// barrier, so only its partition ships OCC metadata (remote.go).
	w.applyRemoteRerun = true
	if w.occEnabled() {
		w.applyEffectsOCC(w.workerBufs[:workers], &st.Effects, &st.EffectConflicts, &st, w.rerunBehavior)
	} else {
		w.applyEffects(w.workerBufs[:workers], &st.Effects, &st.EffectConflicts)
	}
	w.applyRemoteRerun = false
	w.profOf = nil
	st.ApplyNS = time.Since(t1).Nanoseconds()
	w.trace.Span(obs.SpanApply, w.tick, -1, t1)

	t2 := time.Now()
	err := w.drainTriggers(&st)
	st.TriggerNS = time.Since(t2).Nanoseconds()
	w.trace.Span(obs.SpanTrigger, w.tick, -1, t2)
	w.trace.Span(obs.SpanTick, w.tick, -1, t0)
	// statForwarded resets here, not at tick start: barrier re-runs
	// forward records between ticks and count into the next tick.
	st.EffectsForwarded = w.statForwarded
	w.statForwarded = 0
	if err != nil {
		return st, err
	}
	return st, nil
}

// runWorker executes worker wi's contiguous chunk of the behavior
// roster and of each physics table, emitting into its own buffer.
func (w *World) runWorker(wi, workers int) {
	buf := w.workerBufs[wi]
	buf.reset()
	interps := w.workerInterps[wi]
	ws := &w.workerStats[wi]

	var profs map[string]*obs.ProfEntry
	if w.prof != nil {
		profs = w.workerProfs[wi]
	}

	compileOn := w.compileEnabled()

	lo, hi := chunkRange(len(w.rosterBuf), workers, wi)
	for _, id := range w.rosterBuf[lo:hi] {
		name := w.behaviors[id]
		in := w.behaviorInterp(interps, wi, name)
		if in == nil {
			continue
		}
		// Compiled fast path: run the behavior's bound query plan when
		// one exists. A clean, in-budget run commits exactly the records
		// and reads the interpreter would have produced; any error or
		// fuel overrun rolls back to the mark and falls through to the
		// interpreter, whose verdict (effects, error, skip accounting) is
		// authoritative. begin() reseeds the per-invocation rand stream
		// deterministically from (seed, tick, id), so the rerun replays
		// identical draws.
		if compileOn {
			if p := w.behaviorPlan(w.workerPlans, wi, name); p != nil {
				var cpe *obs.ProfEntry
				if profs != nil {
					cpe = w.compiledProfFor(profs, name)
				}
				reads0 := len(buf.reads)
				mark := buf.begin(id)
				start, sampling := cpe.BeginSample()
				_, fuel, err := p.Run(w.cfg.ScriptFuel, entity.Int(int64(id)))
				cpe.EndSample(start, sampling)
				if err == nil {
					ws.calls++
					ws.compiled++
					ws.fuel += fuel
					cpe.AddCall(fuel, int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
					continue
				}
				buf.rollback(mark)
			}
		}
		var pe *obs.ProfEntry
		if profs != nil {
			pe = w.profFor(profs, name)
		}
		reads0 := len(buf.reads)
		mark := buf.begin(id)
		start, sampling := pe.BeginSample()
		_, err := in.Call("on_tick", script.Int(int64(id)))
		pe.EndSample(start, sampling)
		ws.calls++
		ws.fuel += in.FuelUsed()
		if err != nil {
			buf.rollback(mark)
			if isFuelErr(err) {
				ws.skips++
			} else {
				ws.errors++
				if ws.firstErr == nil {
					ws.firstErr, ws.errID = err, id
				}
			}
		}
		if pe != nil {
			// Counted after rollback handling: an errored invocation is
			// atomic and contributed no effects or reads.
			pe.AddCall(in.FuelUsed(), int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
			if err != nil {
				if isFuelErr(err) {
					pe.AddSkip()
				} else {
					pe.AddError()
				}
			}
		}
	}

	dt := w.cfg.TickDT
	for ti, pt := range w.physTabs {
		ids := w.physIDs[ti]
		lo, hi := chunkRange(len(ids), workers, wi)
		for _, id := range ids[lo:hi] {
			if w.ghosts[id] {
				continue // mirrors move only when their owner re-ships them
			}
			r, _ := pt.tab.RowIndex(id)
			vx := pt.tab.ValueAt(pt.vx, r).Float()
			vy := pt.tab.ValueAt(pt.vy, r).Float()
			if vx == 0 && vy == 0 {
				continue
			}
			if vx != 0 {
				buf.physDelta(id, 0, "x", vx*dt)
			}
			if vy != 0 {
				buf.physDelta(id, 1, "y", vy*dt)
			}
		}
	}
}

// behaviorInterp returns worker slot wi's effect-mode clone of the
// named script, building it on first use (nil when the script has no
// on_tick). interps is w.workerInterps[wi]; the clone's builtins
// capture w.workerBufs[wi], so a clone may only run on its own slot.
func (w *World) behaviorInterp(interps map[string]*script.Interp, wi int, name string) *script.Interp {
	in, cached := interps[name]
	if !cached {
		if base := w.scripts[name]; base != nil && base.Program().Fns["on_tick"] != nil {
			in = base.Clone(w.effectBuiltins(w.workerBufs[wi]))
		}
		interps[name] = in
	}
	return in
}

// rerunBehavior re-executes entity src's behavior for the OCC conflict
// policy: worker slot 0's clone, emitting into workerBufs[0] (the OCC
// loop brackets the call with begin/rollback there). An entity that
// lost its behavior mid-apply — despawned by the round just applied —
// cannot re-run and aborts.
func (w *World) rerunBehavior(src entity.ID) (int64, error) {
	name, ok := w.behaviors[src]
	if !ok {
		return 0, fmt.Errorf("world: entity %d no longer runs a behavior", src)
	}
	in := w.behaviorInterp(w.workerInterps[0], 0, name)
	if in == nil {
		return 0, nil
	}
	_, err := in.Call("on_tick", script.Int(int64(src)))
	return in.FuelUsed(), err
}

// chunkRange splits n items into contiguous per-worker ranges (the
// partitioning idiom of query.CountInteractionsParallel).
func chunkRange(n, workers, wi int) (int, int) {
	chunk := (n + workers - 1) / workers
	lo := wi * chunk
	hi := lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ensureWorkers sizes the per-worker effect buffers and script-clone
// caches. Buffers persist across ticks (clone builtins capture them);
// LoadContent clears the clone caches when new scripts arrive.
func (w *World) ensureWorkers(n int) {
	for len(w.workerBufs) < n {
		w.workerBufs = append(w.workerBufs, newEffectBuffer(w))
	}
	for len(w.workerInterps) < n {
		w.workerInterps = append(w.workerInterps, make(map[string]*script.Interp))
	}
	if w.prof != nil {
		for len(w.workerProfs) < n {
			w.workerProfs = append(w.workerProfs, make(map[string]*obs.ProfEntry))
		}
	}
	if w.compileEnabled() {
		for len(w.workerPlans) < n {
			w.workerPlans = append(w.workerPlans, nil)
		}
	}
}

// isFuelErr reports whether err is (or wraps, including through
// errors.Join chains) the interpreter's fuel-exhaustion sentinel.
func isFuelErr(err error) bool {
	return errors.Is(err, script.ErrFuel)
}
