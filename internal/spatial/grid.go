package spatial

import "math"

// Grid is a uniform spatial hash grid, the workhorse index in game
// engines: O(1) updates and range queries proportional to covered cells.
// The paper's Performance section names it implicitly ("traditional
// spatial indices"); the band-join operator in the query package builds
// on it.
//
// Each entity owns one slot and one bucket entry. Three structures
// address them:
//
//   - slotOf maps an id to its slot, the only per-entity hash lookup; a
//     slot records the entity's position, the cell key it falls in, the
//     bucket holding it and its index there, so Pos and a same-cell Move
//     never touch the directory.
//   - dir maps an occupied cell to its bucket (the directory).
//   - a bucket holds the cell's points (what queries scan) and, parallel
//     to them, each point's slot, so a swap-remove can re-point the entry
//     it moved without hashing its id.
//
// Invariants (checked after every operation by the model test):
//
//   - every id in slotOf sits in exactly one bucket, the one dir holds
//     under CellAt of its position, at the index its slot records; that
//     entry carries the same id and position and names the slot back;
//   - dir reaches exactly the non-empty buckets;
//   - a bucket that empties leaves dir and joins freeBuckets with its
//     capacity kept, so a crowd that drifts across cells allocates no
//     buckets in steady state; a removed id's slot joins freeSlots; the
//     free lists and the live slots and buckets are disjoint.
//
// Bucket order is append on entry, swap-with-last on exit.
type Grid struct {
	cell float64

	slotOf    map[ID]int32
	slots     []gridSlot
	freeSlots []int32

	dir         map[CellKey]int32
	buckets     []gridBucket
	freeBuckets []int32
}

// gridSlot locates one entity: it is buckets[bucket].pts[idx], in cell
// key, at pos.
type gridSlot struct {
	pos         Vec2
	key         CellKey
	bucket, idx int32
}

// gridBucket is one occupied cell; slots[i] is the slot of pts[i].
type gridBucket struct {
	pts   []Point
	slots []int32
}

// CellKey identifies one cell of a uniform grid in cell coordinates.
// It is exported so interest management (per-client subscription
// windows in the replica fan-out) can address grid cells directly —
// the pub/sub key space of spatial subscriptions.
type CellKey struct{ X, Y int32 }

// CellAt returns the key of the cell containing p on a grid with the
// given cell size. It is a pure function of (p, cell), so any component
// using the same cell size addresses the same key space.
func CellAt(p Vec2, cell float64) CellKey {
	return CellKey{
		X: int32(math.Floor(p.X / cell)),
		Y: int32(math.Floor(p.Y / cell)),
	}
}

// Rect returns the cell's world-space rectangle on a grid with the
// given cell size.
func (k CellKey) Rect(cell float64) Rect {
	return Rect{
		Min: Vec2{X: float64(k.X) * cell, Y: float64(k.Y) * cell},
		Max: Vec2{X: float64(k.X+1) * cell, Y: float64(k.Y+1) * cell},
	}
}

// CellCover appends to dst the keys of every cell intersecting the
// circle (c, radius) on a grid with the given cell size, in row-major
// (Y, then X) order, and returns the extended slice. Interest
// management uses it to derive a client's subscription window from its
// focus and area-of-interest radius; the per-cell Rect distance test
// trims the corners a plain bounding-box cover would include.
func CellCover(c Vec2, radius, cell float64, dst []CellKey) []CellKey {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	bound := RectAround(c, radius)
	lo := CellAt(bound.Min, cell)
	hi := CellAt(bound.Max, cell)
	for cy := lo.Y; cy <= hi.Y; cy++ {
		for cx := lo.X; cx <= hi.X; cx++ {
			k := CellKey{X: cx, Y: cy}
			if k.Rect(cell).Dist2(c) <= r2 {
				dst = append(dst, k)
			}
		}
	}
	return dst
}

// NewGrid returns a grid with the given cell size. Cell size should be on
// the order of the dominant query radius.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("spatial: grid cell size must be positive")
	}
	return &Grid{
		cell:   cellSize,
		slotOf: make(map[ID]int32),
		dir:    make(map[CellKey]int32),
	}
}

// CellSize returns the configured cell size.
func (g *Grid) CellSize() float64 { return g.cell }

func (g *Grid) keyFor(p Vec2) CellKey { return CellAt(p, g.cell) }

// CellOf returns the key of the cell containing p under this grid's
// cell size.
func (g *Grid) CellOf(p Vec2) CellKey { return g.keyFor(p) }

// cellPts returns the points stored in cell k (nil when unoccupied).
func (g *Grid) cellPts(k CellKey) []Point {
	b, ok := g.dir[k]
	if !ok {
		return nil
	}
	return g.buckets[b].pts
}

// ForEachInCell visits every point stored in cell k (unspecified
// order). Iteration stops early if fn returns false.
func (g *Grid) ForEachInCell(k CellKey, fn func(id ID, p Vec2) bool) {
	for _, pt := range g.cellPts(k) {
		if !fn(pt.ID, pt.Pos) {
			return
		}
	}
}

// link appends slot s (holding id) to the bucket of p's cell, taking a
// recycled bucket when the cell was unoccupied.
func (g *Grid) link(s int32, id ID, p Vec2) {
	k := g.keyFor(p)
	b, ok := g.dir[k]
	if !ok {
		if n := len(g.freeBuckets); n > 0 {
			b = g.freeBuckets[n-1]
			g.freeBuckets = g.freeBuckets[:n-1]
		} else {
			b = int32(len(g.buckets))
			g.buckets = append(g.buckets, gridBucket{})
		}
		g.dir[k] = b
	}
	bk := &g.buckets[b]
	g.slots[s] = gridSlot{pos: p, key: k, bucket: b, idx: int32(len(bk.pts))}
	bk.pts = append(bk.pts, Point{ID: id, Pos: p})
	bk.slots = append(bk.slots, s)
}

// unlink swap-removes slot s's entry from its bucket, retiring the
// bucket when it empties.
func (g *Grid) unlink(s int32) {
	sl := &g.slots[s]
	bk := &g.buckets[sl.bucket]
	last := int32(len(bk.pts) - 1)
	if sl.idx != last {
		moved := bk.slots[last]
		bk.pts[sl.idx] = bk.pts[last]
		bk.slots[sl.idx] = moved
		g.slots[moved].idx = sl.idx
	}
	bk.pts = bk.pts[:last]
	bk.slots = bk.slots[:last]
	if last == 0 {
		delete(g.dir, sl.key)
		g.freeBuckets = append(g.freeBuckets, sl.bucket)
	}
}

// Insert implements Index.
func (g *Grid) Insert(id ID, p Vec2) {
	s, ok := g.slotOf[id]
	if ok {
		g.unlink(s)
	} else {
		if n := len(g.freeSlots); n > 0 {
			s = g.freeSlots[n-1]
			g.freeSlots = g.freeSlots[:n-1]
		} else {
			s = int32(len(g.slots))
			g.slots = append(g.slots, gridSlot{})
		}
		g.slotOf[id] = s
	}
	g.link(s, id, p)
}

// Remove implements Index.
func (g *Grid) Remove(id ID) bool {
	s, ok := g.slotOf[id]
	if !ok {
		return false
	}
	g.unlink(s)
	delete(g.slotOf, id)
	g.freeSlots = append(g.freeSlots, s)
	return true
}

// Move implements Index. A move within a cell is one lookup and two
// stores; a move across cells is an O(1) swap-remove plus one directory
// lookup.
func (g *Grid) Move(id ID, p Vec2) {
	s, ok := g.slotOf[id]
	if !ok {
		g.Insert(id, p)
		return
	}
	if sl := &g.slots[s]; sl.key == g.keyFor(p) {
		sl.pos = p
		g.buckets[sl.bucket].pts[sl.idx].Pos = p
		return
	}
	g.unlink(s)
	g.link(s, id, p)
}

// MoveBatch applies a batch of position updates in one pass, the flush
// side of the world's columnar effect apply: instead of chasing each
// row write through a change notification, the apply phase accumulates
// every entity whose x/y changed this tick and hands the final
// positions over together. Entries are processed in slice order with
// Move semantics, so a batch containing duplicate ids lands on the
// last entry — callers that need reproducible grids should order
// batches deterministically, as applyEffects does.
func (g *Grid) MoveBatch(pts []Point) {
	for i := range pts {
		g.Move(pts[i].ID, pts[i].Pos)
	}
}

// Pos implements Index.
func (g *Grid) Pos(id ID) (Vec2, bool) {
	s, ok := g.slotOf[id]
	if !ok {
		return Vec2{}, false
	}
	return g.slots[s].pos, true
}

// Len implements Index.
func (g *Grid) Len() int { return len(g.slotOf) }

// QueryRect implements Index.
func (g *Grid) QueryRect(r Rect, fn func(id ID, p Vec2) bool) {
	lo := g.keyFor(r.Min)
	hi := g.keyFor(r.Max)
	for cy := lo.Y; cy <= hi.Y; cy++ {
		for cx := lo.X; cx <= hi.X; cx++ {
			for _, pt := range g.cellPts(CellKey{cx, cy}) {
				if r.Contains(pt.Pos) {
					if !fn(pt.ID, pt.Pos) {
						return
					}
				}
			}
		}
	}
}

// QueryCircle implements Index.
func (g *Grid) QueryCircle(c Vec2, radius float64, fn func(id ID, p Vec2) bool) {
	r2 := radius * radius
	bound := RectAround(c, radius)
	lo := g.keyFor(bound.Min)
	hi := g.keyFor(bound.Max)
	for cy := lo.Y; cy <= hi.Y; cy++ {
		for cx := lo.X; cx <= hi.X; cx++ {
			for _, pt := range g.cellPts(CellKey{cx, cy}) {
				if pt.Pos.Dist2(c) <= r2 {
					if !fn(pt.ID, pt.Pos) {
						return
					}
				}
			}
		}
	}
}

// KNN implements Index using expanding square rings of cells around the
// query point, stopping once the ring's minimum possible distance exceeds
// the kth-best candidate.
func (g *Grid) KNN(c Vec2, k int) []Neighbor {
	acc := newKNNAcc(k)
	if k <= 0 || len(g.slotOf) == 0 {
		return nil
	}
	center := g.keyFor(c)
	scanCell := func(ck CellKey) {
		for _, pt := range g.cellPts(ck) {
			acc.offer(pt.ID, pt.Pos, pt.Pos.Dist2(c))
		}
	}
	scanCell(center)
	// maxRing bounds the walk for sparse grids: the ring at which every
	// occupied cell must have been visited.
	maxRing := int32(1)
	for ck := range g.dir {
		dx := ck.X - center.X
		if dx < 0 {
			dx = -dx
		}
		dy := ck.Y - center.Y
		if dy < 0 {
			dy = -dy
		}
		if dx > maxRing {
			maxRing = dx
		}
		if dy > maxRing {
			maxRing = dy
		}
	}
	for ring := int32(1); ring <= maxRing; ring++ {
		// A point in a ring-r cell is at least (r-1)*cell away.
		minDist := float64(ring-1) * g.cell
		if minDist*minDist > acc.worst() {
			break
		}
		x0, x1 := center.X-ring, center.X+ring
		y0, y1 := center.Y-ring, center.Y+ring
		for cx := x0; cx <= x1; cx++ {
			scanCell(CellKey{cx, y0})
			scanCell(CellKey{cx, y1})
		}
		for cy := y0 + 1; cy <= y1-1; cy++ {
			scanCell(CellKey{x0, cy})
			scanCell(CellKey{x1, cy})
		}
	}
	return acc.results()
}
