package world

import "gamedb/internal/content"

// StripTriggerPlans removes the query plans content.Compile attached to
// a pack's trigger rules, so a world loading the pack runs every
// condition and action on the interpreter — the compiled trigger path
// switched off. It exists for differential tests only: production has
// no such switch.
func StripTriggerPlans(c *content.Compiled) {
	for _, ct := range c.Triggers {
		ct.CondPlan, ct.ActPlan = nil, nil
	}
}
