package world

import (
	"errors"
	"time"

	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
	"gamedb/internal/obs"
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
	// fallbacks counts the invocations that ran on the scalar plan: the
	// lanes of the batched run that errored or ran out of fuel, and every
	// entity of a per-entity program.
	fallbacks int
	fuel      int64
	firstErr  error
	errID     entity.ID
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
//     deterministic apply (see trigger_phase.go).
//
// Every phase reads only frozen state between applies and every merge
// order is independent of the partitioning, so the same seed yields an
// identical world for any Workers value.
func (w *World) Step() (TickStats, error) {
	w.tick++
	st := TickStats{Tick: w.tick, Entities: len(w.dir.at)}
	w.foldPending(&st)

	t0 := time.Now()
	workers := w.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	w.queryPhase(&st, workers)
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

// queryPhase runs the tick's behaviors and physics over the frozen state
// on workers chunks and folds the workers' accounting into st. Once its
// buffers have grown, it allocates nothing.
func (w *World) queryPhase(st *TickStats, workers int) {
	w.ensureWorkers(workers)
	for name, b := range w.scripts {
		if b == nil {
			continue
		}
		b.fn.grow(w, workers)
		if w.prof != nil && b.prof == nil {
			b.prof = w.prof.Entry("behavior/" + name)
		}
	}

	// Physics work list: spatial tables carrying velocity columns.
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
		physIDs[len(physIDs)-1] = physIDs[len(physIDs)-1][:0]
	}

	// Roster and physics id snapshots, in one sweep of the directory's
	// owned list: behavior attach/detach and spawns land next tick,
	// entities whose behavior names no loaded on_tick run nothing, and
	// ghost mirrors run no behaviors and no physics (they move only when
	// their owner re-ships them). The snapshots are taken once so every
	// worker chunks the same view; the owned list is ascending, so each
	// chunk's effects leave the worker as one ascending run for
	// sortEffects. The buffers are reused tick-to-tick.
	w.dir.sync()
	roster := w.rosterBuf[:0]
	for _, o := range w.dir.owned {
		rec := &w.dir.recs[o.rec]
		if rec.beh != nil {
			roster = append(roster, o)
		}
		for ti := range physTabs {
			if physTabs[ti].tab == rec.tab {
				physIDs[ti] = append(physIDs[ti], o.id)
				break
			}
		}
	}
	w.rosterBuf = roster
	w.physTabs, w.physIDs = physTabs, physIDs

	stats := w.workerStats[:0]
	for i := 0; i < workers; i++ {
		stats = append(stats, workerStats{})
	}
	w.workerStats = stats

	// The chunks fan across the shared worker pool — no per-tick
	// goroutines. Chunk wi always emits into buffer wi, so results are
	// independent of which pool worker runs which chunk.
	w.queryWorkers = workers
	w.queryJob.Run(workers, w.queryChunkFn)
	var tickErr error
	var tickErrID entity.ID
	w.statFallbacks = 0
	for i := range stats {
		w.statFallbacks += stats[i].fallbacks
		st.ScriptCalls += stats[i].calls
		st.ScriptErrors += stats[i].errors
		st.ScriptSkips += stats[i].skips
		st.FuelUsed += stats[i].fuel
		// The tick's reported error is the lowest source entity id's,
		// not whichever worker finished last — diagnostics stay
		// identical for any Workers value.
		if stats[i].firstErr != nil && (tickErr == nil || stats[i].errID < tickErrID) {
			tickErr, tickErrID = stats[i].firstErr, stats[i].errID
		}
	}
	st.CompiledCalls = st.ScriptCalls
	if tickErr != nil {
		w.LastScriptError = tickErr
	}
}

// queryChunk is worker wi's share of the query phase in flight.
func (w *World) queryChunk(wi int) { w.runWorker(wi, w.queryWorkers) }

// runWorker executes worker wi's contiguous chunk of the behavior
// roster and of each physics table, emitting into its own buffer.
func (w *World) runWorker(wi, workers int) {
	buf := w.workerBufs[wi]
	buf.reset()
	ws := &w.workerStats[wi]

	lo, hi := chunkRange(len(w.rosterBuf), workers, wi)
	w.runBehaviors(wi, buf, ws, w.rosterBuf[lo:hi])

	dt := w.cfg.TickDT
	for ti, pt := range w.physTabs {
		ids := w.physIDs[ti]
		lo, hi := chunkRange(len(ids), workers, wi)
		for _, id := range ids[lo:hi] {
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

// ensureWorkers sizes the per-worker effect buffers. Buffers persist
// across ticks: the bound plans of every worker slot capture theirs.
func (w *World) ensureWorkers(n int) {
	for len(w.workerBufs) < n {
		w.workerBufs = append(w.workerBufs, newEffectBuffer(w))
	}
}

// isFuelErr reports whether err is (or wraps, including through
// errors.Join chains) the fuel-exhaustion sentinel.
func isFuelErr(err error) bool {
	return errors.Is(err, gslplan.ErrFuel)
}
