// Package trigger implements the event-trigger subsystem of data-driven
// design: designers attach "when <event> if <condition> then <action>"
// rules to content, and the engine fires them as the simulation emits
// events. The content pipeline compiles XML trigger declarations into
// these rules, with GSL scripts as conditions and actions.
//
// The engine routes and never executes. The host drains it in cascade
// rounds: TakeRound pops one round's events, MatchRound pairs them with
// registered rules in deterministic (event order, firing order) source
// order, the host evaluates conditions and runs actions itself (the
// world fans them across workers, with writes buffered as effects), and
// reports each firing back through Activate so Once rules stay correct.
package trigger

import (
	"errors"
	"fmt"
	"sort"

	"gamedb/internal/entity"
)

// Event is one occurrence in the simulation: a named happening with an
// optional subject entity and the one payload GSL's emit carries.
type Event struct {
	Name   string
	Entity entity.ID
	Amount entity.Value
}

// Rule is one trigger's routing: the event it answers and its firing
// order. Higher Priority fires first; ties fire in registration order.
// A Once rule is consumed by its first activation. The host holds what
// the rule runs.
type Rule struct {
	Name     string
	Event    string
	Priority int
	Once     bool
}

// ErrCascadeDepth reports a runaway trigger cascade (triggers firing
// events that fire triggers, beyond the configured depth).
var ErrCascadeDepth = errors.New("trigger: cascade depth exceeded")

// Engine routes events to registered rules. It is not safe for concurrent
// use: the world runs rule conditions and actions on worker goroutines,
// but every Engine method — matching, activation, queue handling — stays
// on the coordinating goroutine.
type Engine struct {
	byEvent map[string][]*registered
	// all holds every registration in registration order — the source
	// Reset rebuilds byEvent from when it brings back consumed Once rules.
	all      []*registered
	nextSeq  int
	queue    []Event
	maxDepth int
	// dropped counts queued events abandoned by cascade-depth overflows
	// — events that were posted but never delivered to any rule.
	dropped int64
}

type registered struct {
	rule *Rule
	seq  int
	// dead marks a consumed Once rule; Reset brings it back.
	dead bool
}

// NewEngine returns an empty trigger engine. maxCascade bounds how many
// rounds of trigger-emitted events a drain will process (≤ 0 selects 16).
func NewEngine(maxCascade int) *Engine {
	if maxCascade <= 0 {
		maxCascade = 16
	}
	return &Engine{
		byEvent:  make(map[string][]*registered),
		maxDepth: maxCascade,
	}
}

// MaxCascade returns the configured cascade-round limit.
func (en *Engine) MaxCascade() int { return en.maxDepth }

// Register adds a rule. A rule with an empty Event is rejected. The
// per-event list is rebuilt copy-on-write, so a round's matches taken
// from the previous list stay valid.
func (en *Engine) Register(r *Rule) error {
	if r.Event == "" {
		return fmt.Errorf("trigger: rule %q has no event", r.Name)
	}
	reg := &registered{rule: r, seq: en.nextSeq}
	en.nextSeq++
	en.all = append(en.all, reg)
	old := en.byEvent[r.Event]
	lst := make([]*registered, 0, len(old)+1)
	lst = append(lst, old...)
	lst = append(lst, reg)
	sortFiring(lst)
	en.byEvent[r.Event] = lst
	return nil
}

// sortFiring orders registrations into firing order: priority
// descending, then registration order.
func sortFiring(lst []*registered) {
	sort.SliceStable(lst, func(i, j int) bool {
		if lst[i].rule.Priority != lst[j].rule.Priority {
			return lst[i].rule.Priority > lst[j].rule.Priority
		}
		return lst[i].seq < lst[j].seq
	})
}

// compactEvent drops dead registrations from one event's list into a
// fresh slice — never the old backing array, which a round's matches
// may still reference.
func (en *Engine) compactEvent(event string) {
	lst := en.byEvent[event]
	kept := make([]*registered, 0, len(lst))
	for _, reg := range lst {
		if !reg.dead {
			kept = append(kept, reg)
		}
	}
	en.byEvent[event] = kept
}

// Rules returns the number of live rules.
func (en *Engine) Rules() int {
	n := 0
	for _, lst := range en.byEvent {
		n += len(lst)
	}
	return n
}

// Dropped reports the total number of queued events abandoned by
// cascade-depth overflows since construction (or the last Reset).
func (en *Engine) Dropped() int64 { return en.dropped }

// NoteDropped records n queued events abandoned by the host's own
// cascade-depth handling (the world's round-structured drain).
func (en *Engine) NoteDropped(n int) { en.dropped += int64(n) }

// Post queues an event for the next round. Actions post follow-up
// events through the host's effects, which land here after the round's
// apply, so a cascade never re-enters itself.
func (en *Engine) Post(ev Event) { en.queue = append(en.queue, ev) }

// Reset clears the engine's runtime state — the pending event queue,
// the dropped-event counter, and Once consumption (a consumed Once rule
// comes back, ready to fire again) — while keeping every registered
// rule. World.ResetState and Restore call it so the trigger state
// matches the freshly restored world: no pre-crash events drain into
// it, and Once rules are as unfired as the restored state.
func (en *Engine) Reset() {
	en.queue = nil
	en.dropped = 0
	resurrected := false
	for _, reg := range en.all {
		if reg.dead {
			reg.dead = false
			resurrected = true
		}
	}
	if resurrected {
		byEvent := make(map[string][]*registered, len(en.byEvent))
		for _, reg := range en.all {
			byEvent[reg.rule.Event] = append(byEvent[reg.rule.Event], reg)
		}
		for _, lst := range byEvent {
			sortFiring(lst)
		}
		en.byEvent = byEvent
	}
}

// Match pairs one queued event with one rule registered for it. The
// round-structured drain collects matches first (MatchRound), lets the
// host evaluate conditions and run actions — in parallel if it wants,
// since nothing here executes — and then confirms each firing through
// Activate, which is where Once consumption happens.
type Match struct {
	Rule *Rule
	Ev   Event
	reg  *registered
}

// TakeRound pops every event queued so far — one cascade round — into
// dst (reused from length 0; pass nil to allocate). Events posted while
// the host processes the round accumulate in the engine's retained
// queue storage and form the next round, so a steady-state cascade
// allocates neither queue nor round batch. An empty result means the
// cascade is done.
func (en *Engine) TakeRound(dst []Event) []Event {
	dst = append(dst[:0], en.queue...)
	en.queue = en.queue[:0]
	return dst
}

// MatchRound pairs each event of a round's batch with the rules
// registered for its name, in deterministic source order: events in
// batch order, rules in firing (priority, registration) order, filling
// dst (reused from length 0; pass nil to allocate). Nothing is
// evaluated or executed, and consumed Once rules, compacted out of the
// lists, do not match. The returned matches stay valid when Activate
// consumes a Once rule or a rule is registered (lists are
// copy-on-write); Activate re-checks liveness at firing time.
func (en *Engine) MatchRound(dst []Match, batch []Event) []Match {
	dst = dst[:0]
	for _, ev := range batch {
		for _, reg := range en.byEvent[ev.Name] {
			dst = append(dst, Match{Rule: reg.rule, Ev: ev, reg: reg})
		}
	}
	return dst
}

// Alive reports whether the match's rule can still fire: not a Once
// rule already consumed this round.
func (en *Engine) Alive(m Match) bool { return !m.reg.dead }

// Activate records one firing of the match's rule: a Once rule is
// consumed (marked dead and compacted out). It returns false when the
// rule is already dead, in which case the host must not run the
// action: that is how a Once rule matched by several events in one
// round fires exactly once, for the first match in source order.
func (en *Engine) Activate(m Match) bool {
	if m.reg.dead {
		return false
	}
	if m.Rule.Once {
		m.reg.dead = true
		en.compactEvent(m.Rule.Event)
	}
	return true
}
