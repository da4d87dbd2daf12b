// Package trigger implements the event-trigger subsystem of data-driven
// design: designers attach "when <event> if <condition> then <action>"
// rules to content, and the engine fires them as the simulation emits
// events. The content pipeline compiles XML trigger declarations into
// these rules, with GSL scripts as conditions and actions.
//
// The engine supports two drain styles:
//
//   - the serial Drain: events fire rules one at a time with direct
//     execution, each action observing every earlier action's writes
//     (the classic in-frame trigger loop);
//   - the round-structured drain used by the world's state-effect
//     pipeline: TakeRound pops one cascade round's events, MatchRound
//     pairs them with registered rules in deterministic (event order,
//     firing order) source order WITHOUT executing anything, the host
//     evaluates conditions and runs actions itself (possibly fanned
//     across workers, with writes buffered as effects), and reports
//     each firing back through Activate so Once rules and fired counts
//     stay correct.
package trigger

import (
	"errors"
	"fmt"
	"sort"

	"gamedb/internal/entity"
)

// Event is one occurrence in the simulation: a named happening with an
// optional subject entity and payload fields. Amount is the typed slot
// for the one payload GSL's emit carries, so the world posts events
// without allocating a Fields map each; it reads as the "amount" field.
type Event struct {
	Name   string
	Entity entity.ID
	Amount entity.Value
	Fields map[string]entity.Value
}

// Field returns a payload field, or null when absent. "amount" falls
// back to the Amount slot when Fields does not carry it.
func (e Event) Field(name string) entity.Value {
	if v, ok := e.Fields[name]; ok {
		return v
	}
	if name == "amount" {
		return e.Amount
	}
	return entity.Null()
}

// Rule is one trigger. Cond may be nil (always fire). Higher Priority
// fires first; ties fire in registration order. Once rules unregister
// themselves after their first activation.
type Rule struct {
	Name     string
	Event    string
	Priority int
	Once     bool
	Cond     func(Event) (bool, error)
	Action   func(Event) error
}

// ErrCascadeDepth reports a runaway trigger cascade (triggers firing
// events that fire triggers, beyond the configured depth).
var ErrCascadeDepth = errors.New("trigger: cascade depth exceeded")

// Engine routes events to registered rules. It is not safe for concurrent
// use; the world fires events from the simulation goroutine, matching how
// engines process triggers inside the frame. (The world's effect-aware
// drain does run rule conditions and actions on worker goroutines, but
// all Engine methods — matching, activation, queue handling — stay on
// the coordinating goroutine.)
type Engine struct {
	byEvent map[string][]*registered
	// all holds every live-or-consumed registration in registration
	// order — the source Reset rebuilds byEvent from when it resurrects
	// consumed Once rules. Explicitly unregistered rules leave it.
	all      []*registered
	nextSeq  int
	queue    []Event
	maxDepth int
	// retired keeps the activation counts of explicitly unregistered
	// rules, by name, so FiredCount still reports them. Live and
	// consumed registrations count on themselves (registered.fired):
	// activation is the hot path and must not hash the rule name.
	retired map[string]int64
	// dropped counts queued events abandoned by cascade-depth overflows
	// — events that were posted but never delivered to any rule.
	dropped int64
}

type registered struct {
	rule *Rule
	seq  int
	// fired counts this registration's activations since it was
	// registered (or the last Reset).
	fired int64
	dead  bool
	// consumed distinguishes a Once rule that fired (runtime state,
	// resurrected by Reset) from an explicit Unregister (a content
	// decision that outlives resets).
	consumed bool
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

// Register adds a rule. Rules with empty Event or nil Action are
// rejected. The per-event list is rebuilt copy-on-write so an in-flight
// Fire or MatchRound iterating the previous list is unaffected.
func (en *Engine) Register(r *Rule) error {
	if r.Event == "" {
		return fmt.Errorf("trigger: rule %q has no event", r.Name)
	}
	if r.Action == nil {
		return fmt.Errorf("trigger: rule %q has no action", r.Name)
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

// Unregister removes every live rule with the given name, reporting how
// many were removed. Removal marks the registrations dead and rebuilds
// the per-event lists copy-on-write: a Fire loop (or collected round
// matches) still iterating the old list skips the dead entries instead
// of reading a compacted-over backing array — so an action may
// unregister rules for its own event without corrupting dispatch.
func (en *Engine) Unregister(name string) int {
	n := 0
	for ev, lst := range en.byEvent {
		hit := false
		for _, reg := range lst {
			if reg.rule.Name == name && !reg.dead {
				reg.dead = true
				n++
				hit = true
			}
		}
		if hit {
			en.byEvent[ev] = compactList(lst)
		}
	}
	if n > 0 {
		// Unregistered rules leave the resurrection roster for good —
		// only Once consumption comes back on Reset. Their counts move
		// to the retired tally.
		kept := make([]*registered, 0, len(en.all))
		for _, reg := range en.all {
			if !reg.dead || reg.consumed {
				kept = append(kept, reg)
			} else if reg.fired != 0 {
				if en.retired == nil {
					en.retired = make(map[string]int64)
				}
				en.retired[name] += reg.fired
			}
		}
		en.all = kept
	}
	return n
}

// compactList returns a fresh slice holding the live registrations —
// never the old backing array, which concurrent iterations may still
// be walking.
func compactList(lst []*registered) []*registered {
	kept := make([]*registered, 0, len(lst))
	for _, reg := range lst {
		if !reg.dead {
			kept = append(kept, reg)
		}
	}
	return kept
}

// compactEvent drops dead registrations from one event's list,
// copy-on-write. It re-reads the current list (not any caller
// snapshot), so rules registered mid-iteration are preserved.
func (en *Engine) compactEvent(event string) {
	en.byEvent[event] = compactList(en.byEvent[event])
}

// Rules returns the number of live rules.
func (en *Engine) Rules() int {
	n := 0
	for _, lst := range en.byEvent {
		n += len(lst)
	}
	return n
}

// FiredCount reports how many times rules of the given name have been
// activated (condition passed and action attempted) since construction
// or the last Reset — summed over every registration that ever carried
// the name, unregistered ones included.
func (en *Engine) FiredCount(name string) int64 {
	n := en.retired[name]
	for _, reg := range en.all {
		if reg.rule.Name == name {
			n += reg.fired
		}
	}
	return n
}

// Dropped reports the total number of queued events abandoned by
// cascade-depth overflows since construction (or the last Reset).
func (en *Engine) Dropped() int64 { return en.dropped }

// NoteDropped records n queued events abandoned by the host's own
// cascade-depth handling (the world's round-structured drain).
func (en *Engine) NoteDropped(n int) { en.dropped += int64(n) }

// Pending returns the number of queued events awaiting a drain.
func (en *Engine) Pending() int { return len(en.queue) }

// Fire delivers one event synchronously to matching rules, in priority
// order. It returns the number of rules activated. A condition or
// action error no longer aborts the remaining rules: the event keeps
// dispatching and the errors aggregate into one joined error. Actions
// may Post follow-up events; those stay queued until Drain.
func (en *Engine) Fire(ev Event) (int, error) {
	lst := en.byEvent[ev.Name]
	fired := 0
	var dead bool
	var errs []error
	for _, reg := range lst {
		if reg.dead {
			continue
		}
		r := reg.rule
		if r.Cond != nil {
			ok, err := r.Cond(ev)
			if err != nil {
				errs = append(errs, fmt.Errorf("trigger: rule %q condition: %w", r.Name, err))
				continue
			}
			if !ok {
				continue
			}
		}
		fired++
		reg.fired++
		if r.Once {
			reg.dead, reg.consumed = true, true
			dead = true
		}
		if err := r.Action(ev); err != nil {
			errs = append(errs, fmt.Errorf("trigger: rule %q action: %w", r.Name, err))
		}
	}
	if dead {
		// Compact from the engine's current list, not the local
		// snapshot: an action may have registered or unregistered rules
		// for this event while we iterated.
		en.compactEvent(ev.Name)
	}
	return fired, errors.Join(errs...)
}

// Post queues an event for the next Drain. Actions use Post to emit
// follow-up events without unbounded reentrancy.
func (en *Engine) Post(ev Event) { en.queue = append(en.queue, ev) }

// Drain processes queued events serially with direct execution,
// including events posted by actions while draining, up to the cascade
// depth. It returns the total number of rule activations. An erroring
// rule no longer swallows the rest of its batch: every queued event
// still dispatches, and the errors (plus any depth overflow, with its
// dropped-event count) aggregate into one joined error.
func (en *Engine) Drain() (int, error) {
	total := 0
	var errs []error
	for depth := 0; len(en.queue) > 0; depth++ {
		if depth >= en.maxDepth {
			n := len(en.queue)
			en.queue = en.queue[:0]
			en.dropped += int64(n)
			errs = append(errs, fmt.Errorf("%w: %d queued events dropped", ErrCascadeDepth, n))
			break
		}
		batch := en.queue
		en.queue = nil
		for _, ev := range batch {
			n, err := en.Fire(ev)
			total += n
			if err != nil {
				errs = append(errs, err)
			}
		}
	}
	return total, errors.Join(errs...)
}

// Reset clears the engine's runtime state — the pending event queue,
// fired counts, the dropped-event counter, and Once consumption (a
// consumed Once rule comes back, ready to fire again) — while keeping
// every registered rule. World.ResetState and Restore call it so the
// trigger state matches the freshly restored world: no pre-crash events
// drain into it, and Once rules are as unfired as the fired counts
// claim. Explicitly Unregistered rules stay gone.
func (en *Engine) Reset() {
	en.queue = nil
	en.dropped = 0
	clear(en.retired)
	resurrected := false
	for _, reg := range en.all {
		reg.fired = 0
		if reg.consumed {
			reg.dead, reg.consumed = false, false
			resurrected = true
		}
	}
	if resurrected {
		byEvent := make(map[string][]*registered, len(en.byEvent))
		for _, reg := range en.all {
			if !reg.dead {
				byEvent[reg.rule.Event] = append(byEvent[reg.rule.Event], reg)
			}
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
// Activate, which is where Once consumption and fired counts happen.
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
// evaluated or executed, and dead registrations are skipped. The
// returned matches stay valid across Register/Unregister calls (lists
// are copy-on-write); Activate re-checks liveness at firing time.
func (en *Engine) MatchRound(dst []Match, batch []Event) []Match {
	dst = dst[:0]
	for _, ev := range batch {
		for _, reg := range en.byEvent[ev.Name] {
			if reg.dead {
				continue
			}
			dst = append(dst, Match{Rule: reg.rule, Ev: ev, reg: reg})
		}
	}
	return dst
}

// Alive reports whether the match's rule can still fire: not
// unregistered and not a Once rule already consumed this round.
func (en *Engine) Alive(m Match) bool { return !m.reg.dead }

// Activate records one firing of the match's rule — the fired count
// increments and a Once rule is consumed (marked dead and compacted
// out). It returns false when the rule is already dead, in which case
// the host must not run the action: that is how a Once rule matched by
// several events in one round fires exactly once, for the first match
// in source order.
func (en *Engine) Activate(m Match) bool {
	if m.reg.dead {
		return false
	}
	m.reg.fired++
	if m.Rule.Once {
		m.reg.dead, m.reg.consumed = true, true
		en.compactEvent(m.Rule.Event)
	}
	return true
}
