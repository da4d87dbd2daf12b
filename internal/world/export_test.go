package world

// Fallbacks is how many invocations the last tick ran on the scalar plan
// instead of a batched run: behaviors, and trigger conditions and actions
// (not OCC re-runs, which always run scalar).
func (w *World) Fallbacks() int { return w.statFallbacks }
