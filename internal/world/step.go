package world

import (
	"errors"
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
	w.ensureWorkers(workers)
	for name, b := range w.scripts {
		if b == nil {
			continue
		}
		b.fn.grow(w, workers)
		if w.prof != nil && b.prof == nil {
			b.prof = w.behaviorRow(name, b.fn.plan != nil)
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

	// Roster and physics id snapshots, in one directory sweep: behavior
	// attach/detach and spawns land next tick, entities whose behavior
	// names no loaded on_tick run nothing, and ghost mirrors run no
	// behaviors and no physics (they move only when their owner re-ships
	// them). The snapshots are taken once so every worker chunks the same
	// view, and sorted so each chunk's effects leave the worker as one
	// ascending run for sortEffects; the buffers are reused tick-to-tick.
	roster := w.rosterBuf[:0]
	for i := range w.dir.recs {
		rec := &w.dir.recs[i]
		if rec.tab == nil || rec.ghost {
			continue
		}
		if rec.beh != nil {
			roster = append(roster, rec.id)
		}
		for ti := range physTabs {
			if physTabs[ti].tab == rec.tab {
				physIDs[ti] = append(physIDs[ti], rec.id)
				break
			}
		}
	}
	slices.Sort(roster)
	for _, ids := range physIDs {
		slices.Sort(ids)
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
	ws := &w.workerStats[wi]

	lo, hi := chunkRange(len(w.rosterBuf), workers, wi)
	for _, id := range w.rosterBuf[lo:hi] {
		// The one directory probe of the invocation: its executor, and
		// the subject's table and grid slot for seedSelf.
		rec := w.dir.find(id)
		b := rec.beh
		// A clean, in-budget plan run commits exactly the records and
		// reads the interpreter would have produced; anything else falls
		// back inside invoke to the interpreter, whose verdict (effects,
		// error, skip accounting) is authoritative.
		reads0 := len(buf.reads)
		mark := buf.begin(id)
		buf.seedSelf(rec)
		start, sampling := b.prof.BeginSample()
		_, fuel, onPlan, err := w.invoke(&b.fn, wi, mark, id, entity.Int(int64(id)))
		pe := b.prof
		if pe != nil && !onPlan && b.fn.plan != nil {
			// A plan invocation that fell back: its cost belongs on the
			// behavior's interpreter row, which exists only once this
			// has happened.
			pe = w.behaviorRow(rec.script, false)
		}
		pe.EndSample(start, sampling)
		ws.calls++
		ws.fuel += fuel
		if onPlan {
			ws.compiled++
		}
		if err != nil {
			buf.rollback(mark)
			if isFuelErr(err) {
				ws.skips++
				pe.AddSkip()
			} else {
				ws.errors++
				pe.AddError()
				if ws.firstErr == nil {
					ws.firstErr, ws.errID = err, id
				}
			}
		}
		// Counted after rollback handling: an errored invocation is
		// atomic and contributed no effects or reads.
		pe.AddCall(fuel, int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
	}

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
// across ticks: the bound plans and script clones of every worker slot
// capture theirs.
func (w *World) ensureWorkers(n int) {
	for len(w.workerBufs) < n {
		w.workerBufs = append(w.workerBufs, newEffectBuffer(w))
	}
}

// isFuelErr reports whether err is (or wraps, including through
// errors.Join chains) the interpreter's fuel-exhaustion sentinel.
func isFuelErr(err error) bool {
	return errors.Is(err, script.ErrFuel)
}
