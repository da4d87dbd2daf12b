package trigger

import (
	"errors"
	"testing"

	"gamedb/internal/entity"
)

func TestRegisterValidation(t *testing.T) {
	en := NewEngine(0)
	if err := en.Register(&Rule{Name: "x", Action: func(Event) error { return nil }}); err == nil {
		t.Fatal("missing event should fail")
	}
	if err := en.Register(&Rule{Name: "x", Event: "e"}); err == nil {
		t.Fatal("missing action should fail")
	}
	if err := en.Register(&Rule{Name: "x", Event: "e", Action: func(Event) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d", en.Rules())
	}
}

func TestFireOrderAndCondition(t *testing.T) {
	en := NewEngine(0)
	var order []string
	mk := func(name string, prio int, cond func(Event) (bool, error)) *Rule {
		return &Rule{
			Name: name, Event: "hit", Priority: prio, Cond: cond,
			Action: func(Event) error {
				order = append(order, name)
				return nil
			},
		}
	}
	en.Register(mk("low", 1, nil))
	en.Register(mk("high", 10, nil))
	en.Register(mk("mid-a", 5, nil))
	en.Register(mk("mid-b", 5, nil)) // same priority: registration order
	en.Register(mk("never", 99, func(Event) (bool, error) { return false, nil }))

	n, err := en.Fire(Event{Name: "hit"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("fired %d, want 4", n)
	}
	want := []string{"high", "mid-a", "mid-b", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if en.FiredCount("high") != 1 || en.FiredCount("never") != 0 {
		t.Fatal("FiredCount wrong")
	}
}

func TestEventFieldsAndSubject(t *testing.T) {
	en := NewEngine(0)
	var gotDamage int64
	var gotSubject entity.ID
	en.Register(&Rule{
		Name: "dmg", Event: "damage",
		Cond: func(ev Event) (bool, error) {
			return ev.Field("amount").Int() > 10, nil
		},
		Action: func(ev Event) error {
			gotDamage = ev.Field("amount").Int()
			gotSubject = ev.Entity
			return nil
		},
	})
	en.Fire(Event{Name: "damage", Entity: 7, Fields: map[string]entity.Value{"amount": entity.Int(5)}})
	if gotDamage != 0 {
		t.Fatal("condition should have filtered small damage")
	}
	en.Fire(Event{Name: "damage", Entity: 7, Fields: map[string]entity.Value{"amount": entity.Int(50)}})
	if gotDamage != 50 || gotSubject != 7 {
		t.Fatalf("damage = %d subject = %d", gotDamage, gotSubject)
	}
	if !(Event{}).Field("missing").IsNull() {
		t.Fatal("absent field should be null")
	}
}

func TestEventAmountSlot(t *testing.T) {
	// The typed Amount slot reads as the "amount" field, a Fields entry
	// of that name wins over it, and it answers for no other name.
	ev := Event{Name: "damage", Amount: entity.Int(9)}
	if got := ev.Field("amount"); got.Int() != 9 {
		t.Fatalf(`Field("amount") = %v, want the Amount slot`, got)
	}
	if !ev.Field("other").IsNull() {
		t.Fatal("Amount must only answer for the amount field")
	}
	ev.Fields = map[string]entity.Value{"amount": entity.Int(3)}
	if got := ev.Field("amount"); got.Int() != 3 {
		t.Fatalf(`Field("amount") = %v, want the Fields entry`, got)
	}
	if !(Event{}).Field("amount").IsNull() {
		t.Fatal("unset Amount should be null")
	}
}

func TestOnceRules(t *testing.T) {
	en := NewEngine(0)
	count := 0
	en.Register(&Rule{
		Name: "spawn-boss", Event: "door-open", Once: true,
		Action: func(Event) error { count++; return nil },
	})
	en.Fire(Event{Name: "door-open"})
	en.Fire(Event{Name: "door-open"})
	if count != 1 {
		t.Fatalf("once rule fired %d times", count)
	}
	if en.Rules() != 0 {
		t.Fatalf("once rule should unregister; Rules = %d", en.Rules())
	}
}

func TestUnregister(t *testing.T) {
	en := NewEngine(0)
	act := func(Event) error { return nil }
	en.Register(&Rule{Name: "a", Event: "e1", Action: act})
	en.Register(&Rule{Name: "a", Event: "e2", Action: act})
	en.Register(&Rule{Name: "b", Event: "e1", Action: act})
	if n := en.Unregister("a"); n != 2 {
		t.Fatalf("Unregister removed %d, want 2", n)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1", en.Rules())
	}
}

func TestUnregisterDuringFireKeepsDispatchIntact(t *testing.T) {
	// A rule action that unregisters rules for its own event while Fire
	// iterates the list: the old lst[:0] compaction overwrote the
	// backing array mid-iteration, silently skipping later live rules.
	// Copy-on-write keeps the in-flight snapshot intact, and the dead
	// marks make the unregistered rule invisible to the same iteration.
	en := NewEngine(0)
	var order []string
	en.Register(&Rule{Name: "killer", Event: "e", Priority: 3,
		Action: func(Event) error {
			order = append(order, "killer")
			en.Unregister("victim")
			return nil
		}})
	en.Register(&Rule{Name: "mid", Event: "e", Priority: 2,
		Action: func(Event) error { order = append(order, "mid"); return nil }})
	en.Register(&Rule{Name: "victim", Event: "e", Priority: 1,
		Action: func(Event) error { order = append(order, "victim"); return nil }})
	n, err := en.Fire(Event{Name: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("fired %d, want 2 (killer, mid)", n)
	}
	if len(order) != 2 || order[0] != "killer" || order[1] != "mid" {
		t.Fatalf("order = %v, want [killer mid] — mid lost means compaction corrupted dispatch", order)
	}
	if en.Rules() != 2 {
		t.Fatalf("Rules = %d, want 2", en.Rules())
	}
}

func TestSelfUnregisterDuringFire(t *testing.T) {
	// A rule unregistering ITSELF mid-fire must not skip its successors
	// (the exact lst[:0] shift bug: the kept-compaction moved the next
	// rule into the slot the iterator had already passed).
	en := NewEngine(0)
	var order []string
	en.Register(&Rule{Name: "a", Event: "e",
		Action: func(Event) error {
			order = append(order, "a")
			en.Unregister("a")
			return nil
		}})
	en.Register(&Rule{Name: "b", Event: "e",
		Action: func(Event) error { order = append(order, "b"); return nil }})
	if _, err := en.Fire(Event{Name: "e"}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[1] != "b" {
		t.Fatalf("order = %v, want [a b] — b was skipped by in-place compaction", order)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1", en.Rules())
	}
}

func TestRegisterDuringFireSurvivesCompaction(t *testing.T) {
	// A Once rule firing compacts its event list at the end of Fire;
	// rules registered BY an action during that same Fire must survive
	// the compaction (it must rebuild from the current list, not the
	// iteration snapshot).
	en := NewEngine(0)
	act := func(Event) error { return nil }
	en.Register(&Rule{Name: "once", Event: "e", Once: true,
		Action: func(Event) error {
			return en.Register(&Rule{Name: "late", Event: "e", Action: act})
		}})
	if _, err := en.Fire(Event{Name: "e"}); err != nil {
		t.Fatal(err)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 — rule registered mid-fire was lost", en.Rules())
	}
	n, err := en.Fire(Event{Name: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || en.FiredCount("late") != 1 {
		t.Fatalf("late rule did not fire (n=%d, fired=%d)", n, en.FiredCount("late"))
	}
}

func TestActionErrorsPropagate(t *testing.T) {
	en := NewEngine(0)
	boom := errors.New("boom")
	en.Register(&Rule{Name: "bad", Event: "e", Action: func(Event) error { return boom }})
	if _, err := en.Fire(Event{Name: "e"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	en2 := NewEngine(0)
	en2.Register(&Rule{Name: "badcond", Event: "e",
		Cond:   func(Event) (bool, error) { return false, boom },
		Action: func(Event) error { return nil }})
	if _, err := en2.Fire(Event{Name: "e"}); !errors.Is(err, boom) {
		t.Fatalf("cond err = %v", err)
	}
}

func TestPostAndDrainCascade(t *testing.T) {
	en := NewEngine(8)
	depth := 0
	en.Register(&Rule{
		Name: "chain", Event: "tick",
		Action: func(ev Event) error {
			depth++
			if depth < 3 {
				en.Post(Event{Name: "tick"})
			}
			return nil
		},
	})
	en.Post(Event{Name: "tick"})
	n, err := en.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || depth != 3 {
		t.Fatalf("cascade fired %d (depth %d), want 3", n, depth)
	}
}

func TestFireContinuesPastErrors(t *testing.T) {
	// One bad rule must not mute the rest of the event's dispatch: the
	// remaining rules still run and the errors aggregate.
	en := NewEngine(0)
	boom := errors.New("boom")
	count := 0
	en.Register(&Rule{Name: "bad", Event: "e", Priority: 10,
		Action: func(Event) error { return boom }})
	en.Register(&Rule{Name: "badcond", Event: "e", Priority: 5,
		Cond:   func(Event) (bool, error) { return false, boom },
		Action: func(Event) error { return nil }})
	en.Register(&Rule{Name: "good", Event: "e",
		Action: func(Event) error { count++; return nil }})
	n, err := en.Fire(Event{Name: "e"})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if count != 1 {
		t.Fatal("good rule was skipped after an earlier rule errored")
	}
	if n != 2 { // bad activated (action attempted), badcond did not, good did
		t.Fatalf("fired = %d, want 2", n)
	}
}

func TestDrainContinuesBatchOnError(t *testing.T) {
	// Before the fix, one erroring action dropped the rest of the
	// drained batch on the floor — queued events vanished silently.
	en := NewEngine(0)
	boom := errors.New("boom")
	count := 0
	en.Register(&Rule{Name: "bad", Event: "a", Action: func(Event) error { return boom }})
	en.Register(&Rule{Name: "good", Event: "b", Action: func(Event) error { count++; return nil }})
	en.Post(Event{Name: "a"})
	en.Post(Event{Name: "b"})
	en.Post(Event{Name: "b"})
	n, err := en.Drain()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if count != 2 {
		t.Fatalf("good fired %d times, want 2 — batch was dropped after the error", count)
	}
	if n != 3 {
		t.Fatalf("activations = %d, want 3", n)
	}
	if en.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 (errors are not drops)", en.Dropped())
	}
}

func TestEngineResetClearsRuntimeState(t *testing.T) {
	en := NewEngine(0)
	count := 0
	en.Register(&Rule{Name: "r", Event: "e", Action: func(Event) error { count++; return nil }})
	en.Fire(Event{Name: "e"})
	en.Post(Event{Name: "e"})
	en.Post(Event{Name: "e"})
	if en.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", en.Pending())
	}
	en.Reset()
	if en.Pending() != 0 {
		t.Fatal("Reset left events queued")
	}
	if en.FiredCount("r") != 0 {
		t.Fatal("Reset left fired counts")
	}
	n, err := en.Drain()
	if err != nil || n != 0 {
		t.Fatalf("Drain after Reset = %d, %v — stale queue drained", n, err)
	}
	if count != 1 {
		t.Fatalf("rule ran %d times, want 1 (only the pre-Reset Fire)", count)
	}
	if en.Rules() != 1 {
		t.Fatal("Reset must keep registered rules")
	}
}

func TestResetResurrectsConsumedOnceRules(t *testing.T) {
	// Once consumption is runtime state: a Reset (crash restore) brings
	// the rule back, ready to fire again — but explicit Unregister is a
	// content decision and stays gone.
	en := NewEngine(0)
	count := 0
	en.Register(&Rule{Name: "once", Event: "e", Once: true,
		Action: func(Event) error { count++; return nil }})
	en.Register(&Rule{Name: "gone", Event: "e",
		Action: func(Event) error { return nil }})
	if _, err := en.Fire(Event{Name: "e"}); err != nil {
		t.Fatal(err)
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 (once consumed)", en.Rules())
	}
	en.Unregister("gone")
	en.Reset()
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 (once resurrected, unregistered stays gone)", en.Rules())
	}
	n, err := en.Fire(Event{Name: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || count != 2 {
		t.Fatalf("resurrected once rule: fired %d, count %d", n, count)
	}
	if en.Rules() != 0 {
		t.Fatal("re-fired once rule must re-consume")
	}
}

func TestFiredCountFollowsTheName(t *testing.T) {
	// Counts live on registrations, but FiredCount is by name: it keeps
	// an unregistered rule's activations, adds those of a later rule
	// registered under the same name, counts a Once rule before and
	// after Reset resurrects it, and Reset zeroes all of it.
	en := NewEngine(0)
	act := func(Event) error { return nil }
	en.Register(&Rule{Name: "r", Event: "e", Action: act})
	en.Register(&Rule{Name: "once", Event: "e", Once: true, Action: act})
	en.Fire(Event{Name: "e"})
	en.Fire(Event{Name: "e"})
	if en.FiredCount("r") != 2 || en.FiredCount("once") != 1 {
		t.Fatalf("fired r=%d once=%d, want 2 and 1", en.FiredCount("r"), en.FiredCount("once"))
	}
	if n := en.Unregister("r"); n != 1 {
		t.Fatalf("Unregister removed %d, want 1", n)
	}
	if en.FiredCount("r") != 2 {
		t.Fatalf("FiredCount after Unregister = %d, want 2", en.FiredCount("r"))
	}
	en.Register(&Rule{Name: "r", Event: "e", Action: act})
	en.Post(Event{Name: "e"})
	for _, m := range en.MatchRound(nil, en.TakeRound(nil)) {
		en.Activate(m)
	}
	if en.FiredCount("r") != 3 {
		t.Fatalf("FiredCount after re-Register = %d, want 3", en.FiredCount("r"))
	}
	en.Reset()
	if en.FiredCount("r") != 0 || en.FiredCount("once") != 0 {
		t.Fatalf("Reset left counts r=%d once=%d", en.FiredCount("r"), en.FiredCount("once"))
	}
	en.Fire(Event{Name: "e"})
	if en.FiredCount("r") != 1 || en.FiredCount("once") != 1 {
		t.Fatalf("after Reset: fired r=%d once=%d, want 1 and 1", en.FiredCount("r"), en.FiredCount("once"))
	}
}

func TestRoundMatchingAndOnce(t *testing.T) {
	// The round-structured drain: TakeRound pops the queue, MatchRound
	// pairs events with rules in (event order, firing order) without
	// executing, Activate consumes Once rules so a Once rule matched by
	// two events in one round fires exactly once.
	en := NewEngine(0)
	act := func(Event) error { return nil }
	en.Register(&Rule{Name: "once", Event: "e", Once: true, Priority: 1, Action: act})
	en.Register(&Rule{Name: "many", Event: "e", Action: act})
	en.Post(Event{Name: "e", Entity: 1})
	en.Post(Event{Name: "e", Entity: 2})
	batch := en.TakeRound(nil)
	if len(batch) != 2 || en.Pending() != 0 {
		t.Fatalf("TakeRound = %d events, %d pending", len(batch), en.Pending())
	}
	ms := en.MatchRound(nil, batch)
	if len(ms) != 4 {
		t.Fatalf("matches = %d, want 4 (2 events × 2 rules)", len(ms))
	}
	// Priority order within each event: once before many.
	if ms[0].Rule.Name != "once" || ms[1].Rule.Name != "many" || ms[0].Ev.Entity != 1 {
		t.Fatalf("match order wrong: %s/%d then %s", ms[0].Rule.Name, ms[0].Ev.Entity, ms[1].Rule.Name)
	}
	fired := 0
	for _, m := range ms {
		if en.Activate(m) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("activations = %d, want 3 (once consumed at its first match)", fired)
	}
	if en.FiredCount("once") != 1 || en.FiredCount("many") != 2 {
		t.Fatalf("fired counts once=%d many=%d", en.FiredCount("once"), en.FiredCount("many"))
	}
	if en.Rules() != 1 {
		t.Fatalf("Rules = %d, want 1 (once compacted out)", en.Rules())
	}
	if len(en.MatchRound(nil, []Event{{Name: "e"}})) != 1 {
		t.Fatal("consumed once rule still matches")
	}
}

func TestDrainDepthLimit(t *testing.T) {
	en := NewEngine(4)
	en.Register(&Rule{
		Name: "loop", Event: "tick",
		Action: func(Event) error {
			en.Post(Event{Name: "tick"})
			return nil
		},
	})
	en.Post(Event{Name: "tick"})
	if _, err := en.Drain(); !errors.Is(err, ErrCascadeDepth) {
		t.Fatalf("err = %v, want ErrCascadeDepth", err)
	}
	// The overflow dropped exactly the queue standing at the limit.
	if en.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", en.Dropped())
	}
	// The queue must be cleared so the engine recovers.
	if n, err := en.Drain(); err != nil || n != 0 {
		t.Fatalf("post-overflow Drain = %d, %v", n, err)
	}
}

// TestRoundBuffersAllocFree pins the round-structured drain's steady
// state to zero allocations: TakeRound refills a caller-owned batch
// while the engine retains its queue storage, and MatchRound refills a
// caller-owned match slice — so cascades stop allocating per round
// (the remaining churn flagged by the PR 4 roadmap item).
func TestRoundBuffersAllocFree(t *testing.T) {
	en := NewEngine(0)
	act := func(Event) error { return nil }
	if err := en.Register(&Rule{Name: "a", Event: "e", Priority: 1, Action: act}); err != nil {
		t.Fatal(err)
	}
	if err := en.Register(&Rule{Name: "b", Event: "e", Action: act}); err != nil {
		t.Fatal(err)
	}
	var batch []Event
	var ms []Match
	round := func() {
		en.Post(Event{Name: "e", Entity: 1})
		en.Post(Event{Name: "e", Entity: 2})
		batch = en.TakeRound(batch)
		ms = en.MatchRound(ms, batch)
		for _, m := range ms {
			if !en.Activate(m) {
				t.Fatal("live rule failed to activate")
			}
		}
	}
	round() // warm up: grow the queue, batch and match capacities
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state cascade round allocates %.0f times, want 0", allocs)
	}
	if en.FiredCount("a") == 0 || en.FiredCount("b") == 0 {
		t.Fatal("rounds did not activate the rules")
	}
}
