package spatial

import (
	"math"
	"slices"
)

// Grid is a uniform spatial hash grid, the workhorse index in game
// engines: O(1) updates and range queries proportional to covered cells.
// The paper's Performance section names it implicitly ("traditional
// spatial indices"); the band-join operator in the query package builds
// on it.
//
// Each entity owns one slot and one bucket entry. Three structures
// address them, and the slot-addressed path hashes nothing:
//
//   - a slot records the entity's position, the cell key it falls in,
//     the bucket holding it and its index there, so PosSlot and a
//     same-cell MoveSlot never touch the directory. Callers that keep
//     their own entity directory (the world) address points by the slot
//     InsertSlot returned; the id methods (Insert, Move, Pos, Remove) are
//     thin wrappers over one id → slot map for everyone else.
//   - dir is a fixed dirW×dirW array addressed by the cell key wrapped
//     to (X mod dirW, Y mod dirW): entry r names the bucket of every
//     occupied cell congruent to r, 0 when none is. Cells one period
//     (dirW cells) apart share a bucket. Memory is fixed: a position of
//     NaN, ±Inf or 1e12 lands in some bucket and grows nothing.
//   - a bucket holds its cells' points (what queries scan) and, parallel
//     to them, each point's slot, so a swap-remove can re-point the entry
//     it moved without hashing its id. Because a bucket may hold aliased
//     cells, every query filters by exact distance, containment or key,
//     and clips its cell range to one period so no bucket is visited
//     twice.
//
// Invariants (checked after every operation by the model test):
//
//   - every live slot sits in exactly one bucket, the one dir holds under
//     the wrapped CellAt of its position, at the index its slot records;
//     that entry carries the same position and names the slot back;
//   - dir reaches exactly the non-empty buckets, each under one entry;
//     bucket 0 is a sentinel that stays empty, so an unoccupied entry
//     reads as an empty bucket;
//   - a bucket that empties leaves dir and joins freeBuckets with its
//     capacity kept, so a crowd that drifts across cells allocates no
//     buckets in steady state; a removed slot joins freeSlots; the free
//     lists and the live slots and buckets are disjoint.
//
// Bucket order is append on entry, swap-with-last on exit.
type Grid struct {
	cell float64

	slots     []gridSlot
	freeSlots []int32
	// slotOf serves the id methods only; slot-addressed callers never
	// touch it (it stays nil until the first Insert).
	slotOf map[ID]int32

	dir         *[dirW * dirW]int32
	buckets     []gridBucket
	freeBuckets []int32
}

// dirW is the directory's period in cells per axis: a power of two, so
// wrapping a key is a mask. 128 cells of the world's default 16 units
// cover a 2048-unit square before two occupied cells share a bucket.
const (
	dirBits = 7
	dirW    = 1 << dirBits
	dirMask = dirW - 1
	// bucketCap is a fresh bucket's initial capacity in points.
	bucketCap = 4
)

// gridSlot locates one entity: it is buckets[bucket].pts[idx], in cell
// key, at pos.
type gridSlot struct {
	pos         Vec2
	key         CellKey
	bucket, idx int32
}

// gridBucket holds the points of the cells one directory entry covers;
// slots[i] is the slot of pts[i].
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
		cell:    cellSize,
		dir:     new([dirW * dirW]int32),
		buckets: make([]gridBucket, 1), // bucket 0: the empty sentinel
	}
}

func (g *Grid) keyFor(p Vec2) CellKey { return CellAt(p, g.cell) }

// entry returns the directory index of cell (x, y): its coordinates
// wrapped to one period. Two's-complement wrapping keeps the residue
// exact across int32 overflow, since dirW divides 2³².
func entry(x, y int32) uint32 {
	return (uint32(y)&dirMask)<<dirBits | uint32(x)&dirMask
}

// bucketAt returns the bucket dir holds under entry e (the empty
// sentinel when none).
func (g *Grid) bucketAt(e uint32) *gridBucket {
	return &g.buckets[g.dir[e&(dirW*dirW-1)]]
}

// link appends slot s (holding id) to the bucket of p's cell, taking a
// recycled bucket when its directory entry was unoccupied.
func (g *Grid) link(s int32, id ID, p Vec2) {
	k := g.keyFor(p)
	e := entry(k.X, k.Y)
	b := g.dir[e]
	if b == 0 {
		if n := len(g.freeBuckets); n > 0 {
			b = g.freeBuckets[n-1]
			g.freeBuckets = g.freeBuckets[:n-1]
		} else {
			// A fresh bucket starts with room for a few points: aliased
			// cells share it, so it fills past one point more often than
			// a single cell's would.
			b = int32(len(g.buckets))
			g.buckets = append(g.buckets, gridBucket{
				pts:   make([]Point, 0, bucketCap),
				slots: make([]int32, 0, bucketCap),
			})
		}
		g.dir[e] = b
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
		g.dir[entry(sl.key.X, sl.key.Y)] = 0
		g.freeBuckets = append(g.freeBuckets, sl.bucket)
	}
}

// InsertSlot adds id at p in a fresh slot and returns the slot, the
// handle MoveSlot, PosSlot and RemoveSlot take. The grid does not
// check id for duplicates: a caller addressing points by slot keeps its
// own id directory.
func (g *Grid) InsertSlot(id ID, p Vec2) int32 {
	var s int32
	if n := len(g.freeSlots); n > 0 {
		s = g.freeSlots[n-1]
		g.freeSlots = g.freeSlots[:n-1]
	} else {
		s = int32(len(g.slots))
		g.slots = append(g.slots, gridSlot{})
	}
	g.link(s, id, p)
	return s
}

// MoveSlot moves the point in slot s to p. A move within a cell is two
// stores; a move across cells is an O(1) swap-remove plus one
// directory read.
func (g *Grid) MoveSlot(s int32, p Vec2) {
	sl := &g.slots[s]
	if sl.key == g.keyFor(p) {
		sl.pos = p
		g.buckets[sl.bucket].pts[sl.idx].Pos = p
		return
	}
	id := g.buckets[sl.bucket].pts[sl.idx].ID
	g.unlink(s)
	g.link(s, id, p)
}

// PosSlot returns the position of the point in slot s.
func (g *Grid) PosSlot(s int32) Vec2 { return g.slots[s].pos }

// RemoveSlot removes the point in slot s and frees the slot.
func (g *Grid) RemoveSlot(s int32) {
	g.unlink(s)
	g.freeSlots = append(g.freeSlots, s)
}

// SlotMove is one slot-addressed position update of MoveSlots.
type SlotMove struct {
	Slot int32
	Pos  Vec2
}

// MoveSlots applies a batch of slot-addressed position updates in one
// pass, the flush side of the world's columnar effect apply: instead of
// chasing each row write through a change notification, the apply phase
// accumulates every entity whose x/y changed this tick, resolved to its
// slot once, and hands the final positions over together. Entries apply
// in slice order, so a batch naming one slot twice lands on the last.
func (g *Grid) MoveSlots(moves []SlotMove) {
	for i := range moves {
		g.MoveSlot(moves[i].Slot, moves[i].Pos)
	}
}

// Insert implements Index.
func (g *Grid) Insert(id ID, p Vec2) {
	if s, ok := g.slotOf[id]; ok {
		g.MoveSlot(s, p)
		return
	}
	if g.slotOf == nil {
		g.slotOf = make(map[ID]int32)
	}
	g.slotOf[id] = g.InsertSlot(id, p)
}

// Remove implements Index.
func (g *Grid) Remove(id ID) bool {
	s, ok := g.slotOf[id]
	if ok {
		g.RemoveSlot(s)
		delete(g.slotOf, id)
	}
	return ok
}

// Move implements Index; like Insert, it inserts an absent id.
func (g *Grid) Move(id ID, p Vec2) { g.Insert(id, p) }

// Pos implements Index.
func (g *Grid) Pos(id ID) (Vec2, bool) {
	s, ok := g.slotOf[id]
	if !ok {
		return Vec2{}, false
	}
	return g.PosSlot(s), true
}

// Len implements Index: the number of live slots, however addressed.
func (g *Grid) Len() int { return len(g.slots) - len(g.freeSlots) }

// cover returns the first cell of r's cell cover and the cover's width
// and height in cells, each clipped to one directory period so the
// scan visits every bucket at most once. An empty or inverted r covers
// nothing.
func (g *Grid) cover(r Rect) (lo CellKey, nx, ny int) {
	lo, hi := g.keyFor(r.Min), g.keyFor(r.Max)
	span := func(a, b int32) int {
		return int(max(0, min(int64(b)-int64(a)+1, dirW)))
	}
	return lo, span(lo.X, hi.X), span(lo.Y, hi.Y)
}

// QueryRect implements Index.
func (g *Grid) QueryRect(r Rect, fn func(id ID, p Vec2) bool) {
	lo, nx, ny := g.cover(r)
	for j := 0; j < ny; j++ {
		cy := lo.Y + int32(j)
		for i := 0; i < nx; i++ {
			for _, pt := range g.bucketAt(entry(lo.X+int32(i), cy)).pts {
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
	lo, nx, ny := g.cover(RectAround(c, radius))
	for j := 0; j < ny; j++ {
		cy := lo.Y + int32(j)
		for i := 0; i < nx; i++ {
			for _, pt := range g.bucketAt(entry(lo.X+int32(i), cy)).pts {
				if pt.Pos.Dist2(c) <= r2 {
					if !fn(pt.ID, pt.Pos) {
						return
					}
				}
			}
		}
	}
}

// AppendCircle appends to dst, in the caller's id type, the ids of the
// points within radius of c except skip, sorted ascending — QueryCircle's
// set minus skip (a probe around an entity leaves the entity out), over
// the same cover and distance test, without a callback per hit or a
// general sort.
func AppendCircle[I ~uint64](g *Grid, dst []I, c Vec2, radius float64, skip ID) []I {
	r2 := radius * radius
	lo, nx, ny := g.cover(RectAround(c, radius))
	off := len(dst)
	for j := 0; j < ny; j++ {
		cy := lo.Y + int32(j)
		for i := 0; i < nx; i++ {
			for _, pt := range g.bucketAt(entry(lo.X+int32(i), cy)).pts {
				if pt.ID != skip && pt.Pos.Dist2(c) <= r2 {
					dst = append(dst, I(pt.ID))
				}
			}
		}
	}
	sortIDs(dst[off:])
	return dst
}

// sortIDs sorts a probe's answer: insertion sort for the handful a probe
// usually finds.
func sortIDs[I ~uint64](ids []I) {
	if len(ids) > 12 {
		slices.Sort(ids)
		return
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// KNN implements Index using expanding square rings of cells around the
// query point, stopping once the ring's minimum possible distance exceeds
// the kth-best candidate. Rings stop at half a period, where they have
// offered every bucket exactly once; the bound stays sound under
// aliasing, because a cell sharing a ring-r bucket lies at least r cells
// away too.
func (g *Grid) KNN(c Vec2, k int) []Neighbor {
	if k <= 0 || g.Len() == 0 {
		return nil
	}
	acc := newKNNAcc(k)
	center := g.keyFor(c)
	// scan offers the bucket at offset (dx, dy) from the centre cell;
	// int32 offsets wrap, and so do directory entries.
	scan := func(dx, dy int32) {
		for _, pt := range g.bucketAt(entry(center.X+dx, center.Y+dy)).pts {
			acc.offer(pt.ID, pt.Pos, pt.Pos.Dist2(c))
		}
	}
	scan(0, 0)
	for ring := int32(1); ring <= dirW/2; ring++ {
		// A point in a ring-r cell is at least (r-1)*cell away.
		minDist := float64(ring-1) * g.cell
		if minDist*minDist > acc.worst() {
			break
		}
		if ring == dirW/2 {
			// The last ring's far row and column wrap onto its near ones:
			// scan only the near ones.
			for d := -ring; d < ring; d++ {
				scan(d, -ring)
			}
			for d := -ring + 1; d < ring; d++ {
				scan(-ring, d)
			}
			break
		}
		for d := -ring; d <= ring; d++ {
			scan(d, -ring)
			scan(d, ring)
		}
		for d := -ring + 1; d < ring; d++ {
			scan(-ring, d)
			scan(ring, d)
		}
	}
	return acc.results()
}
