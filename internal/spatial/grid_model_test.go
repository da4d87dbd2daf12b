package spatial

import (
	"math/rand"
	"slices"
	"testing"
)

// The grid model test: random Insert / Move / MoveBatch / Remove /
// re-Insert sequences decoded from bytes, checked after every operation
// against a brute-force map[ID]Vec2 oracle and against the structural
// invariants Grid's doc comment states. TestGridModel feeds it seeded
// random bytes; FuzzGridOps lets the fuzzer write them.

const modelCell = 25.0

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
// are shared), or — far — up to ±1.15e6, far off it.
func (f *byteFeed) pos(far bool) Vec2 {
	p := Vec2{X: float64(int8(f.b())) * 0.9, Y: float64(int8(f.b())) * 0.9}
	if far {
		p.X *= 1e4
		p.Y *= 1e4
	}
	return p
}

func checkGridOps(t *testing.T, data []byte) {
	t.Helper()
	f := &byteFeed{data: data}
	g := NewGrid(modelCell)
	want := map[ID]Vec2{}
	var batch []Point
	for step := 0; !f.done(); step++ {
		switch op := f.b() % 8; op {
		case 0, 1: // Move (inserts when absent), anywhere on the map
			id, p := f.id(), f.pos(false)
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
			id, p := f.id(), f.pos(false)
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
			id, p := f.id(), f.pos(true)
			g.Move(id, p)
			want[id] = p
		default: // MoveBatch, duplicates included: the last entry wins
			batch = batch[:0]
			for n := int(f.b()%6) + 1; n > 0; n-- {
				pt := Point{ID: f.id(), Pos: f.pos(f.b()%16 == 0)}
				batch = append(batch, pt)
				want[pt.ID] = pt.Pos
			}
			g.MoveBatch(batch)
		}
		checkGridInvariants(t, step, g, want)
		checkGridQueries(t, step, g, want, f.pos(false), float64(f.b())/4)
	}
}

// checkGridInvariants walks the grid's internals (see Grid's doc
// comment) and compares Pos and Len with the oracle.
func checkGridInvariants(t *testing.T, step int, g *Grid, want map[ID]Vec2) {
	t.Helper()
	if g.Len() != len(want) {
		t.Fatalf("step %d: Len %d, oracle %d", step, g.Len(), len(want))
	}
	if len(g.slotOf) != len(want) {
		t.Fatalf("step %d: %d ids in slotOf, oracle %d", step, len(g.slotOf), len(want))
	}
	liveSlot := make([]bool, len(g.slots))
	liveBucket := make([]bool, len(g.buckets))
	for id, p := range want {
		if got, ok := g.Pos(id); !ok || got != p {
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
		if b, ok := g.dir[sl.key]; !ok || b != sl.bucket {
			t.Fatalf("step %d: id %d in bucket %d, directory holds %d (%v) under %v", step, id, sl.bucket, b, ok, sl.key)
		}
		bk := g.buckets[sl.bucket]
		if int(sl.idx) >= len(bk.pts) || bk.pts[sl.idx] != (Point{ID: id, Pos: p}) || bk.slots[sl.idx] != s {
			t.Fatalf("step %d: id %d: bucket %d entry %d does not hold it", step, id, sl.bucket, sl.idx)
		}
	}
	if _, ok := g.Pos(999); ok {
		t.Fatalf("step %d: Pos of an id never inserted", step)
	}
	// Every id was found at a distinct (bucket, index) above, so equal
	// totals mean no bucket holds a stray or duplicate entry.
	entries := 0
	for k, b := range g.dir {
		bk := g.buckets[b]
		if len(bk.pts) == 0 || len(bk.pts) != len(bk.slots) {
			t.Fatalf("step %d: directory reaches bucket %d under %v with %d points, %d slots", step, b, k, len(bk.pts), len(bk.slots))
		}
		if liveBucket[b] {
			t.Fatalf("step %d: bucket %d reachable under two keys", step, b)
		}
		liveBucket[b] = true
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
			t.Fatalf("step %d: bucket %d is free but live, free twice, or not empty", step, b)
		}
		liveBucket[b] = true
	}
	if slices.Contains(liveSlot, false) || slices.Contains(liveBucket, false) {
		t.Fatalf("step %d: a slot or bucket is neither live nor on a free list", step)
	}
}

// checkGridQueries compares every query form around c with brute force
// over the oracle, as sets.
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
		if want[id] != p {
			t.Fatalf("step %d: query visited %d at %v, oracle %v", step, id, p, want[id])
		}
		got = append(got, id)
		return true
	}
	same := func(what string, exp []ID) {
		t.Helper()
		slices.Sort(got)
		if !slices.Equal(got, exp) {
			t.Fatalf("step %d: %s = %v, brute force %v", step, what, got, exp)
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

	// KNN walks rings out to the farthest occupied cell, so it is only
	// affordable (and only checked) while no id sits far off the map.
	var dists []float64
	for _, p := range want {
		if p.X < -200 || p.X > 200 || p.Y < -200 || p.Y > 200 {
			return
		}
		dists = append(dists, p.Dist2(c))
	}
	slices.Sort(dists)
	n := int(radius) % 7
	nn := g.KNN(c, n)
	if len(nn) != min(n, len(want)) {
		t.Fatalf("step %d: KNN(%d) returned %d of %d ids", step, n, len(nn), len(want))
	}
	seen := map[ID]bool{}
	for i, nb := range nn {
		// Ties at the kth distance may pick either id; distances may not.
		if seen[nb.ID] || want[nb.ID] != nb.Pos || nb.Dist2 != nb.Pos.Dist2(c) || nb.Dist2 != dists[i] {
			t.Fatalf("step %d: KNN[%d] = %+v, brute-force distance %v", step, i, nb, dists[i])
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
