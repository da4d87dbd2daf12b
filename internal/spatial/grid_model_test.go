package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The grid model test: random Insert / Move / MoveSlots / Remove /
// re-Insert sequences decoded from bytes, checked after every operation
// against a brute-force map[ID]Vec2 oracle and against the structural
// invariants Grid's doc comment states. Positions reach the directory's
// wrap: points congruent modulo its period share buckets, NaN, ±Inf and
// ±1e12 land wherever their keys wrap to, and some queries cover more
// than a period. TestGridModel feeds it seeded random bytes;
// FuzzGridOps lets the fuzzer write them.

const (
	modelCell = 25.0
	// modelPeriod is the directory's period in world units: positions
	// this far apart share a bucket.
	modelPeriod = dirW * modelCell
)

// specials are the positions no map holds: every one keys to some cell
// (platform-defined for NaN and overflow) and must never grow the grid.
var specials = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12, -1e12}

// byteFeed hands out the input's bytes, then zeros.
type byteFeed struct {
	data []byte
	at   int
}

func (f *byteFeed) done() bool { return f.at >= len(f.data) }

func (f *byteFeed) b() byte {
	if f.done() {
		return 0
	}
	v := f.data[f.at]
	f.at++
	return v
}

// id draws from a small id space so operations keep hitting live ids,
// removed ids and each other.
func (f *byteFeed) id() ID { return ID(f.b()%48 + 1) }

// pos draws a position on a ±115 map (about 9×9 cells of 25, so buckets
// are shared).
func (f *byteFeed) pos() Vec2 {
	return Vec2{X: float64(int8(f.b())) * 0.9, Y: float64(int8(f.b())) * 0.9}
}

// far draws a position up to ±1.15e6, far off the map.
func (f *byteFeed) far() Vec2 { return f.pos().Scale(1e4) }

// alias draws a map position shifted by whole periods, so it shares a
// bucket with the unshifted one.
func (f *byteFeed) alias() Vec2 {
	p := f.pos()
	p.X += float64(int(f.b()%5)-2) * modelPeriod
	p.Y += float64(int(f.b()%5)-2) * modelPeriod
	return p
}

// special draws a map position with one or both coordinates replaced by
// a special value.
func (f *byteFeed) special() Vec2 {
	p := f.pos()
	switch v := specials[int(f.b())%len(specials)]; f.b() % 3 {
	case 0:
		p.X = v
	case 1:
		p.Y = v
	default:
		p = Vec2{X: v, Y: v}
	}
	return p
}

// anywhere draws from every kind of position.
func (f *byteFeed) anywhere() Vec2 {
	switch f.b() % 8 {
	case 0:
		return f.far()
	case 1, 2:
		return f.alias()
	case 3:
		return f.special()
	default:
		return f.pos()
	}
}

// samePos compares positions bit for bit, so NaN equals itself.
func samePos(a, b Vec2) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

func checkGridOps(t *testing.T, data []byte) {
	t.Helper()
	f := &byteFeed{data: data}
	g := NewGrid(modelCell)
	want := map[ID]Vec2{}
	var batch []SlotMove
	for step := 0; !f.done(); step++ {
		switch op := f.b() % 10; op {
		case 0, 1: // Move (inserts when absent), anywhere on the map
			id, p := f.id(), f.pos()
			g.Move(id, p)
			want[id] = p
		case 2: // nudge: a small step, usually inside the cell
			id := f.id()
			p := Vec2{X: float64(int8(f.b())) / 16, Y: float64(int8(f.b())) / 16}
			if old, ok := want[id]; ok {
				p = old.Add(p)
			}
			g.Move(id, p)
			want[id] = p
		case 3: // Insert: a new id, or an existing one (which moves it)
			id, p := f.id(), f.pos()
			g.Insert(id, p)
			want[id] = p
		case 4: // Remove, present or not
			id := f.id()
			_, had := want[id]
			if got := g.Remove(id); got != had {
				t.Fatalf("step %d: Remove(%d) = %v, oracle had it: %v", step, id, got, had)
			}
			delete(want, id)
		case 5: // a move far off any map
			id, p := f.id(), f.far()
			g.Move(id, p)
			want[id] = p
		case 6: // a move whole periods away: same bucket, another cell
			id, p := f.id(), f.alias()
			g.Move(id, p)
			want[id] = p
		case 7: // NaN, ±Inf, ±1e12
			id, p := f.id(), f.special()
			g.Move(id, p)
			want[id] = p
		default: // MoveSlots, duplicates included: the last entry wins
			batch = batch[:0]
			for n := int(f.b()%6) + 1; n > 0; n-- {
				id, p := f.id(), f.anywhere()
				if _, ok := want[id]; !ok {
					g.Insert(id, Vec2{}) // MoveSlots moves live slots only
				}
				batch = append(batch, SlotMove{Slot: g.slotOf[id], Pos: p})
				want[id] = p
			}
			g.MoveSlots(batch)
		}
		checkGridInvariants(t, step, g, want)
		c := f.pos()
		if f.b()%4 == 0 {
			c = f.alias()
		}
		radius := float64(f.b()) / 4
		if f.b()%8 == 0 {
			radius += modelPeriod * float64(1+f.b()%3) / 2 // wider than a period
		}
		checkGridQueries(t, step, g, want, c, radius)
		k, kc := int(f.b()%8), c
		if f.b()%4 == 0 {
			k = len(want) + int(f.b()%3) // more than the population, or all of it
		}
		if f.b()%4 == 0 {
			kc = f.anywhere() // far outside the crowd, wrapped, or special
		}
		checkGridKNN(t, step, g, want, kc, k)
	}
}

// checkGridInvariants walks the grid's internals (see Grid's doc
// comment) and compares Pos and Len with the oracle.
func checkGridInvariants(t *testing.T, step int, g *Grid, want map[ID]Vec2) {
	t.Helper()
	if g.Len() != len(want) || len(g.slotOf) != len(want) {
		t.Fatalf("step %d: Len %d, %d ids in slotOf, oracle %d", step, g.Len(), len(g.slotOf), len(want))
	}
	liveSlot := make([]bool, len(g.slots))
	liveBucket := make([]bool, len(g.buckets))
	for id, p := range want {
		if got, ok := g.Pos(id); !ok || !samePos(got, p) {
			t.Fatalf("step %d: Pos(%d) = %v %v, oracle %v", step, id, got, ok, p)
		}
		s := g.slotOf[id]
		if liveSlot[s] {
			t.Fatalf("step %d: slot %d serves two ids", step, s)
		}
		liveSlot[s] = true
		sl := g.slots[s]
		if sl.key != CellAt(p, modelCell) {
			t.Fatalf("step %d: id %d at %v records cell %v, keys to %v", step, id, p, sl.key, CellAt(p, modelCell))
		}
		if b := g.dir[entry(sl.key.X, sl.key.Y)]; b == 0 || b != sl.bucket {
			t.Fatalf("step %d: id %d in bucket %d, its wrapped entry holds %d", step, id, sl.bucket, b)
		}
		bk := g.buckets[sl.bucket]
		if int(sl.idx) >= len(bk.pts) || bk.pts[sl.idx].ID != id || !samePos(bk.pts[sl.idx].Pos, p) || bk.slots[sl.idx] != s {
			t.Fatalf("step %d: id %d: bucket %d entry %d does not hold it", step, id, sl.bucket, sl.idx)
		}
	}
	if _, ok := g.Pos(999); ok {
		t.Fatalf("step %d: Pos of an id never inserted", step)
	}
	if len(g.buckets[0].pts) != 0 || len(g.buckets[0].slots) != 0 {
		t.Fatalf("step %d: the sentinel bucket holds %d points", step, len(g.buckets[0].pts))
	}
	liveBucket[0] = true
	// Every id was found at a distinct (bucket, index) above, so equal
	// totals mean no bucket holds a stray or duplicate entry.
	entries := 0
	for e, b := range g.dir {
		if b == 0 {
			continue
		}
		bk := g.buckets[b]
		if len(bk.pts) == 0 || len(bk.pts) != len(bk.slots) {
			t.Fatalf("step %d: entry %d reaches bucket %d with %d points, %d slots", step, e, b, len(bk.pts), len(bk.slots))
		}
		if liveBucket[b] {
			t.Fatalf("step %d: bucket %d reachable from two entries (or is the sentinel)", step, b)
		}
		liveBucket[b] = true
		for _, s := range bk.slots {
			if k := g.slots[s].key; entry(k.X, k.Y) != uint32(e) {
				t.Fatalf("step %d: slot %d keyed %v sits under entry %d", step, s, k, e)
			}
		}
		entries += len(bk.pts)
	}
	if entries != len(want) {
		t.Fatalf("step %d: buckets hold %d entries, oracle %d ids", step, entries, len(want))
	}
	for _, s := range g.freeSlots {
		if liveSlot[s] {
			t.Fatalf("step %d: slot %d is both free and live (or free twice)", step, s)
		}
		liveSlot[s] = true
	}
	for _, b := range g.freeBuckets {
		if liveBucket[b] || len(g.buckets[b].pts) != 0 {
			t.Fatalf("step %d: bucket %d is free but live, free twice, the sentinel, or not empty", step, b)
		}
		liveBucket[b] = true
	}
	if slices.Contains(liveSlot, false) || slices.Contains(liveBucket, false) {
		t.Fatalf("step %d: a slot or bucket is neither live nor on a free list", step)
	}
}

// checkGridQueries compares every query form around c with brute force
// over the oracle. Results compare as sorted lists, so a point visited
// twice fails as surely as a point missed.
func checkGridQueries(t *testing.T, step int, g *Grid, want map[ID]Vec2, c Vec2, radius float64) {
	t.Helper()
	brute := func(keep func(Vec2) bool) []ID {
		var out []ID
		for id, p := range want {
			if keep(p) {
				out = append(out, id)
			}
		}
		slices.Sort(out)
		return out
	}
	var got []ID
	collect := func(id ID, p Vec2) bool {
		if !samePos(want[id], p) {
			t.Fatalf("step %d: query visited %d at %v, oracle %v", step, id, p, want[id])
		}
		got = append(got, id)
		return true
	}
	same := func(what string, exp []ID) {
		t.Helper()
		slices.Sort(got)
		if !slices.Equal(got, exp) {
			t.Fatalf("step %d: %s around %v r=%v = %v, brute force %v", step, what, c, radius, got, exp)
		}
		got = got[:0]
	}

	r := NewRect(c.X-radius, c.Y-radius/2, c.X+radius/2, c.Y+radius)
	g.QueryRect(r, collect)
	same("QueryRect", brute(r.Contains))

	g.QueryCircle(c, radius, collect)
	same("QueryCircle", brute(func(p Vec2) bool { return p.Dist2(c) <= radius*radius }))

	k := CellAt(c, modelCell)
	g.ForEachInCell(k, collect)
	same("ForEachInCell", brute(func(p Vec2) bool { return CellAt(p, modelCell) == k }))
}

// knnDist is the distance KNN ranks by: NaN counts as +Inf.
func knnDist(p, c Vec2) float64 {
	if d := p.Dist2(c); d == d {
		return d
	}
	return math.Inf(1)
}

// checkGridKNN compares KNN(c, k) with a brute-force ranking of the
// oracle.
func checkGridKNN(t *testing.T, step int, g *Grid, want map[ID]Vec2, c Vec2, k int) {
	t.Helper()
	var dists []float64
	for _, p := range want {
		dists = append(dists, knnDist(p, c))
	}
	slices.Sort(dists)
	nn := g.KNN(c, k)
	if len(nn) != min(k, len(want)) {
		t.Fatalf("step %d: KNN(%v, %d) returned %d of %d ids", step, c, k, len(nn), len(want))
	}
	seen := map[ID]bool{}
	for i, nb := range nn {
		// Ties at the kth distance may pick either id; distances may not.
		if seen[nb.ID] || !samePos(want[nb.ID], nb.Pos) || nb.Dist2 != knnDist(nb.Pos, c) || nb.Dist2 != dists[i] {
			t.Fatalf("step %d: KNN(%v, %d)[%d] = %+v, brute-force distance %v", step, c, k, i, nb, dists[i])
		}
		seen[nb.ID] = true
	}
}

func TestGridModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		checkGridOps(t, data)
	}
}

func FuzzGridOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{3, 1, 10, 10, 0, 0, 0, 3, 1, 90, 90, 0, 0, 0, 4, 1, 0, 0, 0, 3, 1, 10, 10}) // insert, re-insert, remove, re-insert
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		checkGridOps(t, data)
	})
}
