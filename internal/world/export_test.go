package world

// The reference execution the differential tests compare the one
// production pipeline against. Production has no switch for it.

// UseRowApply makes w apply assignments and deltas row-at-a-time
// (applyAssignRows) instead of through the columnar batches.
func (w *World) UseRowApply() { w.rowApply = true }

// Fallbacks is how many behavior invocations the last query phase ran on
// the scalar plan instead of a batched run.
func (w *World) Fallbacks() int { return w.statFallbacks }
