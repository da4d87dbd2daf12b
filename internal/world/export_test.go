package world

import (
	"strings"

	"gamedb/internal/spatial"
	"gamedb/internal/trigger"
)

// Fallbacks is how many invocations the last tick ran on the scalar plan
// instead of a batched run: behaviors, and trigger conditions and actions
// (not OCC re-runs, which always run scalar).
func (w *World) Fallbacks() int { return w.statFallbacks }

// Triggers exposes the trigger engine: its live rules, cascade limit
// and dropped-event tally.
func (w *World) Triggers() *trigger.Engine { return w.trig }

// Index exposes the spatial grid. The world addresses its points by
// slot, so the grid's id methods (Pos, Move, Remove) know none of them:
// read positions through World.Pos.
func (w *World) Index() *spatial.Grid { return w.index }

// PlanFor returns the Explain text of a loaded script's on_tick plan; ok
// is false when no loaded script of that name has an on_tick.
// "trigger/<rule>" (the rule's profile-entry name) reports a content
// pack rule instead: the plans of its <when> (if any) and <do>.
func (w *World) PlanFor(name string) (explain string, ok bool) {
	if rule, isRule := strings.CutPrefix(name, "trigger/"); isRule {
		for _, bt := range w.trigBound {
			if bt.name == rule {
				return bt.src.ExplainPlans(), true
			}
		}
		return "", false
	}
	b := w.scripts[name]
	if b == nil {
		return "", false
	}
	return b.fn.plan.Explain(), true
}
