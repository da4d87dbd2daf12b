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

// behaviorRow returns a behavior's profile row: "behavior/<name>", or
// its compiled twin for the row of plan execution. Callers guarantee
// w.prof != nil.
func (w *World) behaviorRow(name string, compiled bool) *obs.ProfEntry {
	if compiled {
		return w.prof.CompiledEntry("behavior/" + name)
	}
	return w.prof.Entry("behavior/" + name)
}

// behaviorProf is the behavior-phase apply's source → entry mapping:
// the row of the executor that ran the source's invocation, or the
// shared "(physics)" entry for sources running no behavior
// (pure-physics entities, whose deltas can still drop when another
// invocation despawns them mid-apply). An invocation whose records
// reached the apply ran on the behavior's plan when it has one: a plan
// error is an interpreter error (gslplan's contract), and an errored
// invocation contributes no records to drop, retry or abort.
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
