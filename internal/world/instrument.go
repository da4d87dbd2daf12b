package world

// Observability attribution helpers (internal/obs wiring). Everything
// here is inert with respect to world state: the hooks read counters
// and clocks but never touch tables, effect ordering or RNG streams,
// which is what lets the hash-invariance grid tests run with tracing
// and profiling enabled. When Config.Profile is nil each hook is one
// branch.

import (
	"gamedb/internal/entity"
	"gamedb/internal/obs"
)

// behaviorProf is the behavior-phase apply's source → entry mapping:
// the source's "behavior/<name>" row, or the shared "(physics)" entry
// for sources running no behavior (pure-physics entities, whose deltas
// can still drop when another invocation despawns them mid-apply).
func (w *World) behaviorProf(src entity.ID) *obs.ProfEntry {
	if rec := w.dir.find(src); rec != nil && rec.beh != nil {
		return rec.beh.prof
	}
	return w.otherProf
}

// noteConflict attributes one dropped apply record to the in-flight
// apply's source mapping. Per-record drop sites (failed resolves,
// despawn/post races, row-path write failures) attribute exactly;
// columnar batch-level skips stay aggregate-only in TickStats, because
// the batch entry points report a count, not which records skipped.
func (w *World) noteConflict(src entity.ID) {
	if w.profOf == nil {
		return
	}
	w.profOf(src).AddConflict()
}

// noteRetries attributes one OCC re-run round's invalidated sources.
func (w *World) noteRetries(srcs []entity.ID) {
	if w.profOf == nil {
		return
	}
	for _, src := range srcs {
		w.profOf(src).AddRetry()
	}
}

// noteAbort attributes one OCC abort (a re-run that errored).
func (w *World) noteAbort(src entity.ID) {
	if w.profOf == nil {
		return
	}
	w.profOf(src).AddAbort()
}

// noteAborts attributes the sources still invalidated when the OCC
// retry cap tripped.
func (w *World) noteAborts(srcs []entity.ID) {
	if w.profOf == nil {
		return
	}
	for _, src := range srcs {
		w.profOf(src).AddAbort()
	}
}
