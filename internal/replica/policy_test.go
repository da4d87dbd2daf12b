package replica

import "testing"

// TestShouldShipEdges pins the policy's boundary behavior — the cases
// the hub's due index depends on being exact.
func TestShouldShipEdges(t *testing.T) {
	tests := []struct {
		name     string
		spec     FieldSpec
		cur      float64
		sent     float64
		tick     int64
		sentTick int64
		want     bool
	}{
		// Unchanged never ships, whatever the class or age.
		{"exact unchanged", FieldSpec{Class: Exact}, 5, 5, 100, 0, false},
		{"coarse unchanged past deadline", FieldSpec{Class: Coarse, Epsilon: 1, MaxAge: 3}, 5, 5, 100, 0, false},
		{"cosmetic unchanged on schedule", FieldSpec{Class: Cosmetic, Period: 4}, 5, 5, 8, 0, false},
		// Exact ships on any divergence, immediately.
		{"exact tiny change", FieldSpec{Class: Exact}, 5.0000001, 5, 1, 0, true},
		// Coarse: divergence strictly beyond epsilon ships; exactly at
		// epsilon does not (|d| > eps is strict).
		{"coarse at epsilon", FieldSpec{Class: Coarse, Epsilon: 0.5}, 5.5, 5, 1, 0, false},
		{"coarse beyond epsilon", FieldSpec{Class: Coarse, Epsilon: 0.5}, 5.6, 5, 1, 0, true},
		// Coarse MaxAge: the deadline is inclusive — exactly MaxAge ticks
		// of unsent drift ships (tick - sentTick >= MaxAge)...
		{"coarse at deadline", FieldSpec{Class: Coarse, Epsilon: 10, MaxAge: 3}, 6, 5, 13, 10, true},
		// ...one tick earlier does not.
		{"coarse before deadline", FieldSpec{Class: Coarse, Epsilon: 10, MaxAge: 3}, 6, 5, 12, 10, false},
		// Coarse with MaxAge 0 never ships on time alone.
		{"coarse no deadline", FieldSpec{Class: Coarse, Epsilon: 10, MaxAge: 0}, 6, 5, 1000, 0, false},
		// Cosmetic ships on period ticks only; Period <= 0 behaves as 1
		// (every tick).
		{"cosmetic on schedule", FieldSpec{Class: Cosmetic, Period: 4}, 6, 5, 8, 0, true},
		{"cosmetic off schedule", FieldSpec{Class: Cosmetic, Period: 4}, 6, 5, 9, 0, false},
		{"cosmetic zero period", FieldSpec{Class: Cosmetic, Period: 0}, 6, 5, 9, 0, true},
		{"cosmetic negative period", FieldSpec{Class: Cosmetic, Period: -2}, 6, 5, 9, 0, true},
	}
	for _, tc := range tests {
		if got := tc.spec.ShouldShip(tc.cur, tc.sent, tc.tick, tc.sentTick); got != tc.want {
			t.Errorf("%s: ShouldShip = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNextDueComplementsShouldShip pins the contract the incremental
// reconcile is built on: when ShouldShip declines a diverged value,
// NextDue names the exact first future tick at which ShouldShip (with
// no further writes) flips true — and reports none when it never will.
func TestNextDueComplementsShouldShip(t *testing.T) {
	// Coarse under epsilon: due exactly at sentTick + MaxAge.
	coarse := FieldSpec{Class: Coarse, Epsilon: 1, MaxAge: 5}
	due, ok := coarse.NextDue(12, 10)
	if !ok || due != 15 {
		t.Fatalf("coarse NextDue = (%d, %v), want (15, true)", due, ok)
	}
	// Walk the gap: ShouldShip stays false strictly before due, true at due.
	for tick := int64(13); tick < 15; tick++ {
		if coarse.ShouldShip(5.5, 5, tick, 10) {
			t.Fatalf("coarse shipped at tick %d, before its due tick 15", tick)
		}
	}
	if !coarse.ShouldShip(5.5, 5, 15, 10) {
		t.Fatal("coarse did not ship at its due tick")
	}

	// Coarse without a deadline: nothing pends.
	if _, ok := (FieldSpec{Class: Coarse, Epsilon: 1}).NextDue(12, 10); ok {
		t.Fatal("MaxAge=0 Coarse registered a due tick")
	}
	// A due tick in the past cannot pend (ShouldShip would have shipped).
	if _, ok := coarse.NextDue(20, 10); ok {
		t.Fatal("past-deadline Coarse registered a due tick")
	}

	// Cosmetic: due at the next period multiple strictly after tick.
	cos := FieldSpec{Class: Cosmetic, Period: 4}
	for _, tc := range []struct{ tick, want int64 }{{9, 12}, {11, 12}, {12, 16}} {
		due, ok := cos.NextDue(tc.tick, 0)
		if !ok || due != tc.want {
			t.Fatalf("cosmetic NextDue(%d) = (%d, %v), want (%d, true)", tc.tick, due, ok, tc.want)
		}
		if !cos.ShouldShip(6, 5, due, 0) {
			t.Fatalf("cosmetic did not ship at its due tick %d", due)
		}
	}
	// Period <= 0 behaves as 1: due next tick.
	due, ok = (FieldSpec{Class: Cosmetic}).NextDue(9, 0)
	if !ok || due != 10 {
		t.Fatalf("zero-period cosmetic NextDue = (%d, %v), want (10, true)", due, ok)
	}

	// Exact never pends: a declined Exact evaluation means cur == sent.
	if _, ok := (FieldSpec{Class: Exact}).NextDue(12, 10); ok {
		t.Fatal("Exact registered a due tick")
	}
}
