package world

// Fallbacks is how many behavior invocations the last query phase ran on
// the scalar plan instead of a batched run.
func (w *World) Fallbacks() int { return w.statFallbacks }
