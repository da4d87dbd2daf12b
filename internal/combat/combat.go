// Package combat implements "aggro management", the paper's example of a
// weak-consistency technique: World of Warcraft "assigns abstract roles
// to the participants, which allows the game to handle combat without
// exact spatial fidelity". An NPC tracks threat per attacker and switches
// targets only when a challenger's threat exceeds the current target's by
// a hysteresis factor, so slightly divergent client views still agree on
// who the boss attacks. The package also provides the exact-spatial
// baseline (attack the nearest enemy) that the aggro experiment compares
// against.
package combat

import (
	"sort"

	"gamedb/internal/spatial"
)

// ID identifies a combatant.
type ID = spatial.ID

// Hysteresis factors from WoW's combat rules: a melee attacker must
// exceed 110% of the current target's threat to pull aggro, a ranged
// attacker 130%.
const (
	MeleeSwitchFactor  = 1.10
	RangedSwitchFactor = 1.30
)

// ThreatTable is one NPC's per-attacker threat state.
type ThreatTable struct {
	threat  map[ID]float64
	current ID
	hasCur  bool
	// Switches counts target changes, the stability metric of E6.
	Switches int64
}

// NewThreatTable returns an empty threat table.
func NewThreatTable() *ThreatTable {
	return &ThreatTable{threat: make(map[ID]float64)}
}

// AddThreat accrues threat for an attacker (damage done, healing done
// scaled, etc.). Negative amounts reduce threat toward zero.
func (t *ThreatTable) AddThreat(src ID, amount float64) {
	v := t.threat[src] + amount
	if v < 0 {
		v = 0
	}
	t.threat[src] = v
}

// Taunt forces the taunter to the top of the table and makes it the
// current target immediately — the standard tank-swap mechanic. Its
// threat becomes 110% of the previous maximum so the old leader must
// out-threat it again to pull back.
func (t *ThreatTable) Taunt(src ID) {
	maxT := 0.0
	for _, v := range t.threat {
		if v > maxT {
			maxT = v
		}
	}
	t.threat[src] = maxT * 1.10
	if maxT == 0 {
		t.threat[src] = 1
	}
	if !t.hasCur || t.current != src {
		t.current = src
		t.hasCur = true
		t.Switches++
	}
}

// Remove drops an attacker (death, despawn).
func (t *ThreatTable) Remove(src ID) {
	delete(t.threat, src)
	if t.hasCur && t.current == src {
		t.hasCur = false
	}
}

// Threat returns an attacker's current threat.
func (t *ThreatTable) Threat(src ID) float64 { return t.threat[src] }

// Len returns the number of attackers on the table.
func (t *ThreatTable) Len() int { return len(t.threat) }

// Target applies the switch rule and returns the current target.
// switchFactor is the hysteresis multiplier (MeleeSwitchFactor or
// RangedSwitchFactor). ok is false when the table is empty.
func (t *ThreatTable) Target(switchFactor float64) (ID, bool) {
	if len(t.threat) == 0 {
		t.hasCur = false
		return 0, false
	}
	// Find the top contender deterministically (threat desc, ID asc).
	top := ID(0)
	topThreat := -1.0
	ids := make([]ID, 0, len(t.threat))
	for id := range t.threat {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if v := t.threat[id]; v > topThreat {
			top = id
			topThreat = v
		}
	}
	if !t.hasCur {
		t.current = top
		t.hasCur = true
		t.Switches++
		return t.current, true
	}
	if _, alive := t.threat[t.current]; !alive {
		t.current = top
		t.Switches++
		return t.current, true
	}
	if top != t.current && topThreat > t.threat[t.current]*switchFactor {
		t.current = top
		t.Switches++
	}
	return t.current, true
}

// NearestPolicy is the exact-spatial baseline: always target the closest
// enemy. It carries its own switch counter for symmetric measurement.
type NearestPolicy struct {
	current  ID
	hasCur   bool
	Switches int64
}

// Target returns the nearest candidate to pos, counting target changes.
// ok is false with no candidates.
func (n *NearestPolicy) Target(pos spatial.Vec2, candidates []spatial.Point) (ID, bool) {
	if len(candidates) == 0 {
		n.hasCur = false
		return 0, false
	}
	best := candidates[0]
	bestD := best.Pos.Dist2(pos)
	for _, c := range candidates[1:] {
		d := c.Pos.Dist2(pos)
		if d < bestD || (d == bestD && c.ID < best.ID) {
			best = c
			bestD = d
		}
	}
	if !n.hasCur || n.current != best.ID {
		n.current = best.ID
		n.hasCur = true
		n.Switches++
	}
	return n.current, true
}
