// Package workload generates the synthetic equivalents of the production
// traces the paper's anecdotes come from: movement models with tunable
// density skew (EVE-style fleet clustering for bubble experiments), raid
// combat with important events (WoW-style boss fights for checkpointing
// and aggro experiments), and contended action streams (for concurrency
// control). Every generator is seeded, so experiments are reproducible.
package workload

import (
	"math/rand"

	"gamedb/internal/bubble"
	"gamedb/internal/spatial"
	"gamedb/internal/txn"
)

// Mover is one moving entity in a movement model.
type Mover struct {
	ID       spatial.ID
	Pos      spatial.Vec2
	Vel      spatial.Vec2
	MaxSpeed float64
	MaxAccel float64
	target   spatial.Vec2
}

// Movement simulates a population of movers inside a world rectangle
// under one of three models:
//
//   - random waypoint: each mover picks a uniform destination, walks
//     there, picks another (uniform density — the bubble worst case is
//     mild).
//   - hotspot: destinations are drawn near a few attraction points
//     (market hubs, quest bosses), producing the density skew that makes
//     causality bubbles interesting.
//   - flocking: boids-lite cohesion/separation over grid neighbors,
//     producing emergent clusters.
type Movement struct {
	World  spatial.Rect
	Movers []Mover

	model    modelKind
	rng      *rand.Rand
	hotspots []spatial.Vec2
	grid     *spatial.Grid
}

type modelKind uint8

const (
	modelWaypoint modelKind = iota
	modelHotspot
	modelFlock
)

func newMovement(rng *rand.Rand, n int, world spatial.Rect, speed float64, kind modelKind) *Movement {
	m := &Movement{World: world, rng: rng, model: kind}
	for i := 0; i < n; i++ {
		m.Movers = append(m.Movers, Mover{
			ID:       spatial.ID(i + 1),
			Pos:      m.randPoint(),
			MaxSpeed: speed * (0.5 + rng.Float64()),
			MaxAccel: speed * 0.5,
		})
	}
	for i := range m.Movers {
		m.Movers[i].target = m.pickTarget()
	}
	return m
}

// NewRandomWaypoint builds a uniform-density movement model.
func NewRandomWaypoint(rng *rand.Rand, n int, world spatial.Rect, speed float64) *Movement {
	return newMovement(rng, n, world, speed, modelWaypoint)
}

// NewHotspot builds a skewed model where movers congregate around
// nHotspots attraction points.
func NewHotspot(rng *rand.Rand, n int, world spatial.Rect, speed float64, nHotspots int) *Movement {
	m := newMovement(rng, n, world, speed, modelHotspot)
	for i := 0; i < nHotspots; i++ {
		m.hotspots = append(m.hotspots, m.randPoint())
	}
	for i := range m.Movers {
		m.Movers[i].target = m.pickTarget()
	}
	return m
}

// NewFlocking builds a boids-lite model with local cohesion and
// separation.
func NewFlocking(rng *rand.Rand, n int, world spatial.Rect, speed float64) *Movement {
	m := newMovement(rng, n, world, speed, modelFlock)
	m.grid = spatial.NewGrid(world.Width() / 20)
	for i := range m.Movers {
		m.Movers[i].Vel = spatial.Vec2{
			X: rng.NormFloat64() * speed / 2,
			Y: rng.NormFloat64() * speed / 2,
		}
		m.grid.Insert(m.Movers[i].ID, m.Movers[i].Pos)
	}
	return m
}

func (m *Movement) randPoint() spatial.Vec2 {
	return spatial.Vec2{
		X: m.World.Min.X + m.rng.Float64()*m.World.Width(),
		Y: m.World.Min.Y + m.rng.Float64()*m.World.Height(),
	}
}

func (m *Movement) pickTarget() spatial.Vec2 {
	if m.model == modelHotspot && len(m.hotspots) > 0 && m.rng.Float64() < 0.8 {
		h := m.hotspots[m.rng.Intn(len(m.hotspots))]
		spread := m.World.Width() * 0.03
		return m.World.Clamp(spatial.Vec2{
			X: h.X + m.rng.NormFloat64()*spread,
			Y: h.Y + m.rng.NormFloat64()*spread,
		})
	}
	return m.randPoint()
}

// Step advances the simulation by dt seconds.
func (m *Movement) Step(dt float64) {
	switch m.model {
	case modelFlock:
		m.stepFlock(dt)
	default:
		m.stepWaypoint(dt)
	}
}

func (m *Movement) stepWaypoint(dt float64) {
	for i := range m.Movers {
		mv := &m.Movers[i]
		to := mv.target.Sub(mv.Pos)
		d := to.Len()
		if d < mv.MaxSpeed*dt {
			mv.Pos = mv.target
			mv.target = m.pickTarget()
			mv.Vel = spatial.Vec2{}
			continue
		}
		want := to.Scale(mv.MaxSpeed / d)
		// Accelerate toward the desired velocity, bounded by MaxAccel.
		dv := want.Sub(mv.Vel)
		maxDv := mv.MaxAccel * dt
		if dv.Len() > maxDv {
			dv = dv.Normalize().Scale(maxDv)
		}
		mv.Vel = mv.Vel.Add(dv)
		mv.Pos = m.World.Clamp(mv.Pos.Add(mv.Vel.Scale(dt)))
	}
}

func (m *Movement) stepFlock(dt float64) {
	radius := m.World.Width() / 25
	for i := range m.Movers {
		mv := &m.Movers[i]
		var center, avoid spatial.Vec2
		n := 0
		m.grid.QueryCircle(mv.Pos, radius, func(id spatial.ID, p spatial.Vec2) bool {
			if id == mv.ID {
				return true
			}
			center = center.Add(p)
			n++
			if p.Dist2(mv.Pos) < (radius/4)*(radius/4) {
				avoid = avoid.Add(mv.Pos.Sub(p))
			}
			return true
		})
		accel := spatial.Vec2{}
		if n > 0 {
			center = center.Scale(1 / float64(n))
			accel = accel.Add(center.Sub(mv.Pos).Scale(0.05))
			accel = accel.Add(avoid.Scale(0.3))
		}
		// Gentle pull toward the world center keeps the flock in bounds.
		accel = accel.Add(m.World.Center().Sub(mv.Pos).Scale(0.005))
		if accel.Len() > mv.MaxAccel {
			accel = accel.Normalize().Scale(mv.MaxAccel)
		}
		mv.Vel = mv.Vel.Add(accel.Scale(dt))
		if mv.Vel.Len() > mv.MaxSpeed {
			mv.Vel = mv.Vel.Normalize().Scale(mv.MaxSpeed)
		}
		mv.Pos = m.World.Clamp(mv.Pos.Add(mv.Vel.Scale(dt)))
		m.grid.Move(mv.ID, mv.Pos)
	}
}

// Points snapshots current positions.
func (m *Movement) Points() []spatial.Point {
	out := make([]spatial.Point, len(m.Movers))
	for i, mv := range m.Movers {
		out[i] = spatial.Point{ID: mv.ID, Pos: mv.Pos}
	}
	return out
}

// BubbleEntities converts movers to causality-bubble inputs.
func (m *Movement) BubbleEntities() []bubble.Entity {
	out := make([]bubble.Entity, len(m.Movers))
	for i, mv := range m.Movers {
		out[i] = bubble.Entity{ID: mv.ID, Pos: mv.Pos, Vel: mv.Vel, MaxAccel: mv.MaxAccel}
	}
	return out
}

// LocalTxns generates one transaction per mover whose footprint is the
// mover plus up to fanout of its nearest neighbors — interactions are
// local, the property causality bubbles exploit. Keys are mover indices
// (ID-1).
func LocalTxns(m *Movement, fanout, work int) []*txn.Txn {
	grid := spatial.NewGrid(m.World.Width() / 20)
	for _, mv := range m.Movers {
		grid.Insert(mv.ID, mv.Pos)
	}
	txns := make([]*txn.Txn, 0, len(m.Movers))
	for _, mv := range m.Movers {
		t := &txn.Txn{Work: work}
		t.Writes = append(t.Writes, txn.Key(mv.ID-1))
		for _, nb := range grid.KNN(mv.Pos, fanout+1) {
			if nb.ID == mv.ID {
				continue
			}
			t.Reads = append(t.Reads, txn.Key(nb.ID-1))
			if len(t.Reads) >= fanout {
				break
			}
		}
		txns = append(txns, t)
	}
	return txns
}

// GroupTxnsByBubble partitions LocalTxns-style transactions (txn i owned
// by mover i, key k mover k's) by bubble for txn.Partitioned: group b
// holds the txns of bubble b in txn order. A txn whose footprint reaches
// into other bubbles — LocalTxns' nearest neighbors may lie beyond the
// bubbles' interaction range — links them, and linked bubbles share the
// group of the lowest-indexed one (the others stay empty), so no key one
// group touches is touched by another and the groups run in parallel
// with the serial outcome.
func GroupTxnsByBubble(p *bubble.Partition, txns []*txn.Txn) [][]*txn.Txn {
	parent := make([]int, p.NumBubbles())
	for b := range parent {
		parent[b] = b
	}
	find := func(b int) int {
		for parent[b] != b {
			parent[b] = parent[parent[b]]
			b = parent[b]
		}
		return b
	}
	for i, t := range txns {
		bi := find(p.BubbleOf[spatial.ID(i+1)])
		for _, keys := range [][]txn.Key{t.Reads, t.Writes} {
			for _, k := range keys {
				bk := find(p.BubbleOf[spatial.ID(k+1)])
				bi, bk = min(bi, bk), max(bi, bk)
				parent[bk] = bi
			}
		}
	}
	groups := make([][]*txn.Txn, p.NumBubbles())
	for i, t := range txns {
		bi := find(p.BubbleOf[spatial.ID(i+1)])
		groups[bi] = append(groups[bi], t)
	}
	return groups
}
