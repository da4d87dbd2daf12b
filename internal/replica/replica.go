// Package replica implements client-state replication with the weakened
// consistency tiers the paper describes: games keep the persistent world
// exactly consistent while letting "animation or other uncontested
// activity ... be out of sync between computers". Each replicated field
// carries a consistency class:
//
//   - Exact: every change ships on the tick it happens (persistent
//     state — inventory, hp).
//   - Coarse: ships only when server and replica diverge beyond an
//     epsilon or a staleness deadline passes (positions).
//   - Cosmetic: ships on a fixed low-rate schedule, best effort
//     (animation phase, particle seeds).
//
// Interest management (area-of-interest filtering) rides on top: a client
// only receives entities near its focus point, which is how MMOs bound
// per-client bandwidth. The Hub (fanout.go) ships the tiers to clients;
// shard ghost refresh decides by the same ShouldShip policy.
package replica

import (
	"fmt"
	"math"

	"gamedb/internal/spatial"
)

// Class is a field's consistency class.
type Class uint8

// The consistency tiers.
const (
	Exact Class = iota
	Coarse
	Cosmetic
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Exact:
		return "exact"
	case Coarse:
		return "coarse"
	case Cosmetic:
		return "cosmetic"
	default:
		return "?"
	}
}

// FieldSpec describes one replicated numeric field.
type FieldSpec struct {
	Name  string
	Class Class
	// Epsilon is the allowed divergence for Coarse fields.
	Epsilon float64
	// MaxAge forces a Coarse ship after this many ticks of unsent drift.
	MaxAge int64
	// Period is the ship schedule for Cosmetic fields (every Period
	// ticks). 0 behaves as 1.
	Period int64
}

// ShouldShip reports whether a changed value ships on tick under the
// field's consistency class, given the last-shipped value and its tick.
// Both client replication and shard ghost refresh decide through this
// one policy.
func (f FieldSpec) ShouldShip(cur, sent float64, tick, sentTick int64) bool {
	if cur == sent {
		return false
	}
	switch f.Class {
	case Exact:
		return true
	case Coarse:
		if math.Abs(cur-sent) > f.Epsilon {
			return true
		}
		return f.MaxAge > 0 && tick-sentTick >= f.MaxAge
	case Cosmetic:
		period := f.Period
		if period <= 0 {
			period = 1
		}
		return tick%period == 0
	default:
		return true
	}
}

// NextDue returns the future tick at which a diverged-but-declined
// value becomes due to ship with no further writes, and whether such a
// tick exists. It is the time-driven complement of ShouldShip: if
// ShouldShip(cur, sent, tick, sentTick) returned false with cur != sent,
// then for every t' in (tick, due) ShouldShip stays false and at
// t' == due it turns true. A consumer that re-evaluates changed rows
// immediately and due rows at their due tick therefore ships exactly
// what a full per-tick scan would — and re-evaluating an unchanged row
// in between ships nothing, which is what lets shard.FeedPump perform
// that full scan, offering every owned row every tick.
//
//   - Exact fields ship on any divergence, so a declined Exact
//     evaluation means cur == sent: nothing pends.
//   - Coarse fields under epsilon become due when the staleness
//     deadline passes: sentTick + MaxAge (never, when MaxAge <= 0).
//   - Cosmetic fields become due at the next schedule tick: the first
//     multiple of Period after tick.
func (f FieldSpec) NextDue(tick, sentTick int64) (int64, bool) {
	switch f.Class {
	case Coarse:
		if f.MaxAge <= 0 {
			return 0, false
		}
		due := sentTick + f.MaxAge
		if due <= tick {
			// Already past the deadline: ShouldShip would have shipped,
			// so a declined evaluation can only land here when cur moved
			// back to sent. Nothing pends.
			return 0, false
		}
		return due, true
	case Cosmetic:
		period := f.Period
		if period <= 0 {
			period = 1
		}
		return (tick/period + 1) * period, true
	default:
		return 0, false
	}
}

// ID identifies a replicated entity.
type ID = spatial.ID

// CheckSpecs rejects a field list a hub cannot address: a field with no
// name, or two fields of one name.
func CheckSpecs(specs []FieldSpec) error {
	seen := make(map[string]bool, len(specs))
	for i, sp := range specs {
		if sp.Name == "" {
			return fmt.Errorf("replica: field %d has no name", i)
		}
		if seen[sp.Name] {
			return fmt.Errorf("replica: duplicate field %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	return nil
}
