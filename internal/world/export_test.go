package world

import "gamedb/internal/content"

// The reference executions the differential tests compare the one
// production pipeline against. Production has no switch for any of
// them.

// StripPlans removes the query plans content.Compile attached to a
// pack's behavior scripts and trigger rules, so a world loading the
// pack runs every on_tick, condition and action on the interpreter.
func StripPlans(c *content.Compiled) {
	for _, cs := range c.Scripts {
		cs.Plan = nil
	}
	StripTriggerPlans(c)
}

// StripTriggerPlans removes the plans of the pack's trigger rules only.
func StripTriggerPlans(c *content.Compiled) {
	for _, ct := range c.Triggers {
		ct.CondPlan, ct.ActPlan = nil, nil
	}
}

// UseRowApply makes w apply assignments and deltas row-at-a-time
// (applyAssignRows) instead of through the columnar batches.
func (w *World) UseRowApply() { w.rowApply = true }

// UseDirectTriggers makes w drain triggers through the engine's serial
// direct-write Drain instead of the effect-aware rounds.
func (w *World) UseDirectTriggers() { w.directTriggers = true }
