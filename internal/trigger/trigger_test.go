package trigger

import (
	"errors"
	"fmt"
	"testing"

	"gamedb/internal/entity"
)

// round drains one cascade round the way a host does: pop the queue,
// match, and activate every match in source order. It returns the names
// of the rules that fired, in firing order.
func round(en *Engine) []string {
	var fired []string
	for _, m := range en.MatchRound(nil, en.TakeRound(nil)) {
		if en.Activate(m) {
			fired = append(fired, m.Rule.Name)
		}
	}
	return fired
}

func TestRegisterValidation(t *testing.T) {
	en := NewEngine(0)
	if err := en.Register(&Rule{Name: "x"}); err == nil {
		t.Fatal("missing event should fail")
	}
	if en.Rules() != 0 {
		t.Fatalf("rejected rule registered; Rules = %d", en.Rules())
	}
	if err := en.Register(&Rule{Name: "x", Event: "e"}); err != nil {
		t.Fatal(err)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d", en.Rules())
	}
}

func TestFireOrderAndCondition(t *testing.T) {
	// Within each event, rules match in priority order, ties in
	// registration order; events keep their posting order. Conditions
	// are the host's: a match whose condition fails is never activated,
	// so even a Once rule stays live for its next match.
	en := NewEngine(0)
	en.Register(&Rule{Name: "low", Event: "hit", Priority: 1})
	en.Register(&Rule{Name: "high", Event: "hit", Priority: 10})
	en.Register(&Rule{Name: "mid-a", Event: "hit", Priority: 5})
	en.Register(&Rule{Name: "mid-b", Event: "hit", Priority: 5}) // same priority: registration order
	en.Register(&Rule{Name: "picky", Event: "hit", Priority: 99, Once: true})
	en.Register(&Rule{Name: "other", Event: "miss"})
	en.Post(Event{Name: "hit", Entity: 1})
	en.Post(Event{Name: "miss", Entity: 2})
	en.Post(Event{Name: "hit", Entity: 3})
	var got []string
	for _, m := range en.MatchRound(nil, en.TakeRound(nil)) {
		if m.Rule.Name == "picky" && m.Ev.Entity != 3 {
			continue // the host's condition rejects this match
		}
		if en.Activate(m) {
			got = append(got, fmt.Sprintf("%s/%d", m.Rule.Name, m.Ev.Entity))
		}
	}
	want := []string{"high/1", "mid-a/1", "mid-b/1", "low/1", "other/2", "picky/3", "high/3", "mid-a/3", "mid-b/3", "low/3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestEventAmountSlot(t *testing.T) {
	// The event's subject and Amount slot reach every match unchanged.
	en := NewEngine(0)
	en.Register(&Rule{Name: "a", Event: "damage", Priority: 1})
	en.Register(&Rule{Name: "b", Event: "damage"})
	en.Post(Event{Name: "damage", Entity: 7, Amount: entity.Int(9)})
	ms := en.MatchRound(nil, en.TakeRound(nil))
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Ev.Entity != 7 || m.Ev.Amount.Int() != 9 {
			t.Fatalf("rule %s matched subject %d amount %v, want 7 and 9", m.Rule.Name, m.Ev.Entity, m.Ev.Amount)
		}
	}
	if !(Event{}).Amount.IsNull() {
		t.Fatal("unset Amount should be null")
	}
}

func TestOnceRules(t *testing.T) {
	// A Once rule fires for its first match only — across the matches
	// of one round and across later rounds.
	en := NewEngine(0)
	en.Register(&Rule{Name: "spawn-boss", Event: "door-open", Once: true})
	en.Post(Event{Name: "door-open"})
	en.Post(Event{Name: "door-open"})
	if got := round(en); len(got) != 1 {
		t.Fatalf("once rule fired %d times in one round", len(got))
	}
	en.Post(Event{Name: "door-open"})
	if got := round(en); len(got) != 0 {
		t.Fatalf("consumed once rule fired again: %v", got)
	}
	if en.Rules() != 0 {
		t.Fatalf("once rule should be consumed; Rules = %d", en.Rules())
	}
}

func TestRegisterDuringFireSurvivesCompaction(t *testing.T) {
	// Activating a Once rule compacts its event list; a rule registered
	// for the same event after the round was matched must survive that
	// compaction (it rebuilds from the current list, not the one the
	// matches came from) and match the next round.
	en := NewEngine(0)
	en.Register(&Rule{Name: "once", Event: "e", Once: true})
	en.Post(Event{Name: "e"})
	ms := en.MatchRound(nil, en.TakeRound(nil))
	if err := en.Register(&Rule{Name: "late", Event: "e"}); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if !en.Activate(m) {
			t.Fatalf("rule %s failed to activate", m.Rule.Name)
		}
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 — rule registered mid-round was lost", en.Rules())
	}
	en.Post(Event{Name: "e"})
	if got := round(en); len(got) != 1 || got[0] != "late" {
		t.Fatalf("next round fired %v, want [late]", got)
	}
}

func TestPostAndDrainCascade(t *testing.T) {
	// Events posted while a round runs form the next round.
	en := NewEngine(8)
	en.Register(&Rule{Name: "chain", Event: "tick"})
	en.Post(Event{Name: "tick"})
	depth := 0
	for {
		fired := round(en)
		if len(fired) == 0 {
			break
		}
		depth++
		if depth < 3 {
			en.Post(Event{Name: "tick"})
		}
	}
	if depth != 3 {
		t.Fatalf("cascade ran %d rounds, want 3", depth)
	}
}

func TestEngineResetClearsRuntimeState(t *testing.T) {
	en := NewEngine(0)
	en.Register(&Rule{Name: "r", Event: "e"})
	en.Post(Event{Name: "e"})
	en.Post(Event{Name: "e"})
	en.NoteDropped(2)
	en.Reset()
	if n := len(en.TakeRound(nil)); n != 0 {
		t.Fatalf("Reset left %d events queued", n)
	}
	if en.Dropped() != 0 {
		t.Fatalf("Reset left Dropped = %d", en.Dropped())
	}
	if en.Rules() != 1 {
		t.Fatal("Reset must keep registered rules")
	}
}

func TestResetResurrectsConsumedOnceRules(t *testing.T) {
	// Once consumption is runtime state: a Reset (crash restore) brings
	// the rule back in its firing place, ready to fire once more.
	en := NewEngine(0)
	en.Register(&Rule{Name: "once", Event: "e", Once: true, Priority: 1})
	en.Register(&Rule{Name: "many", Event: "e"})
	en.Post(Event{Name: "e"})
	if got := round(en); fmt.Sprint(got) != "[once many]" {
		t.Fatalf("first round fired %v", got)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 (once consumed)", en.Rules())
	}
	en.Reset()
	if en.Rules() != 2 {
		t.Fatalf("Rules = %d, want 2 (once resurrected)", en.Rules())
	}
	en.Post(Event{Name: "e"})
	en.Post(Event{Name: "e"})
	if got := round(en); fmt.Sprint(got) != "[once many many]" {
		t.Fatalf("after Reset fired %v, want [once many many]", got)
	}
	if en.Rules() != 1 {
		t.Fatal("re-fired once rule must re-consume")
	}
}

func TestRoundMatchingAndOnce(t *testing.T) {
	// The round-structured drain: TakeRound pops the queue, MatchRound
	// pairs events with rules in (event order, firing order) without
	// executing, Activate consumes Once rules so a Once rule matched by
	// two events in one round fires exactly once.
	en := NewEngine(0)
	en.Register(&Rule{Name: "once", Event: "e", Once: true, Priority: 1})
	en.Register(&Rule{Name: "many", Event: "e"})
	en.Post(Event{Name: "e", Entity: 1})
	en.Post(Event{Name: "e", Entity: 2})
	batch := en.TakeRound(nil)
	if len(batch) != 2 || len(en.TakeRound(nil)) != 0 {
		t.Fatalf("TakeRound = %d events, or left some queued", len(batch))
	}
	ms := en.MatchRound(nil, batch)
	if len(ms) != 4 {
		t.Fatalf("matches = %d, want 4 (2 events × 2 rules)", len(ms))
	}
	// Priority order within each event: once before many.
	if ms[0].Rule.Name != "once" || ms[1].Rule.Name != "many" || ms[0].Ev.Entity != 1 {
		t.Fatalf("match order wrong: %s/%d then %s", ms[0].Rule.Name, ms[0].Ev.Entity, ms[1].Rule.Name)
	}
	fired := map[string]int{}
	for _, m := range ms {
		if en.Activate(m) {
			fired[m.Rule.Name]++
		}
	}
	if fired["once"] != 1 || fired["many"] != 2 {
		t.Fatalf("activations once=%d many=%d, want 1 and 2 (once consumed at its first match)", fired["once"], fired["many"])
	}
	if en.Alive(ms[2]) {
		t.Fatal("consumed once rule still alive")
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 (once compacted out)", en.Rules())
	}
	if len(en.MatchRound(nil, []Event{{Name: "e"}})) != 1 {
		t.Fatal("consumed once rule still matches")
	}
}

func TestDrainDepthLimit(t *testing.T) {
	// A host drain that stops at MaxCascade drops exactly the queue
	// standing at the limit, and the engine recovers.
	en := NewEngine(4)
	en.Register(&Rule{Name: "loop", Event: "tick"})
	en.Post(Event{Name: "tick"})
	var err error
	for r := 0; ; r++ {
		batch := en.TakeRound(nil)
		if len(batch) == 0 {
			break
		}
		if r >= en.MaxCascade() {
			en.NoteDropped(len(batch))
			err = fmt.Errorf("%w: %d queued events dropped", ErrCascadeDepth, len(batch))
			break
		}
		for _, m := range en.MatchRound(nil, batch) {
			if en.Activate(m) {
				en.Post(Event{Name: "tick"})
			}
		}
	}
	if !errors.Is(err, ErrCascadeDepth) {
		t.Fatalf("err = %v, want ErrCascadeDepth", err)
	}
	if en.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", en.Dropped())
	}
	if n := len(en.TakeRound(nil)); n != 0 {
		t.Fatalf("%d events still queued after the overflow", n)
	}
}

// TestRoundBuffersAllocFree pins the round-structured drain's steady
// state to zero allocations: TakeRound refills a caller-owned batch
// while the engine retains its queue storage, and MatchRound refills a
// caller-owned match slice — so cascades stop allocating per round.
func TestRoundBuffersAllocFree(t *testing.T) {
	en := NewEngine(0)
	if err := en.Register(&Rule{Name: "a", Event: "e", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := en.Register(&Rule{Name: "b", Event: "e"}); err != nil {
		t.Fatal(err)
	}
	var batch []Event
	var ms []Match
	activated := 0
	round := func() {
		en.Post(Event{Name: "e", Entity: 1})
		en.Post(Event{Name: "e", Entity: 2})
		batch = en.TakeRound(batch)
		ms = en.MatchRound(ms, batch)
		for _, m := range ms {
			if !en.Activate(m) {
				t.Fatal("live rule failed to activate")
			}
			activated++
		}
	}
	round() // warm up: grow the queue, batch and match capacities
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state cascade round allocates %.0f times, want 0", allocs)
	}
	if activated == 0 {
		t.Fatal("rounds did not activate the rules")
	}
}
