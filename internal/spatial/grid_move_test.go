package spatial

import (
	"math/rand"
	"sort"
	"testing"
)

func queryAll(g *Grid, r Rect) []ID {
	var out []ID
	g.QueryRect(r, func(id ID, _ Vec2) bool {
		out = append(out, id)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMoveSlotsMatchesSequentialMoves drives the same random walk
// through per-entity Move calls and through one MoveSlots per step and
// checks positions and query results agree at every step.
func TestMoveSlotsMatchesSequentialMoves(t *testing.T) {
	const n = 200
	seqG := NewGrid(10)
	batG := NewGrid(10)
	rng := rand.New(rand.NewSource(3))
	pos := make([]Vec2, n)
	slots := make([]int32, n)
	for i := 0; i < n; i++ {
		pos[i] = Vec2{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		seqG.Insert(ID(i+1), pos[i])
		slots[i] = batG.InsertSlot(ID(i+1), pos[i])
	}
	for step := 0; step < 20; step++ {
		batch := make([]SlotMove, 0, n)
		for i := 0; i < n; i++ {
			// Mix small in-cell jitters with cross-cell jumps.
			d := 2.0
			if i%7 == 0 {
				d = 40.0
			}
			pos[i].X += (rng.Float64()*2 - 1) * d
			pos[i].Y += (rng.Float64()*2 - 1) * d
			seqG.Move(ID(i+1), pos[i])
			batch = append(batch, SlotMove{Slot: slots[i], Pos: pos[i]})
		}
		batG.MoveSlots(batch)
		for i := 0; i < n; i++ {
			sp, _ := seqG.Pos(ID(i + 1))
			if bp := batG.PosSlot(slots[i]); sp != bp {
				t.Fatalf("step %d id %d: batch pos %v, sequential %v", step, i+1, bp, sp)
			}
		}
		probe := NewRect(pos[0].X-25, pos[0].Y-25, pos[0].X+25, pos[0].Y+25)
		sq, bq := queryAll(seqG, probe), queryAll(batG, probe)
		if len(sq) != len(bq) {
			t.Fatalf("step %d: query sizes diverge: %d vs %d", step, len(sq), len(bq))
		}
		for i := range sq {
			if sq[i] != bq[i] {
				t.Fatalf("step %d: query results diverge at %d: %v vs %v", step, i, sq, bq)
			}
		}
	}
	if seqG.Len() != batG.Len() {
		t.Fatalf("grid sizes diverge: %d vs %d", seqG.Len(), batG.Len())
	}
}

// BenchmarkGridMoveSlots moves 8000 points per batch: "same-cell" jitters
// each inside its cell (one lookup and two stores per move), "cross-cell"
// sends each to a neighboring cell and back (unlink, directory lookup,
// link — on a sparse grid, where most cells empty and refill), "mixed"
// crosses with one point in eight.
func BenchmarkGridMoveSlots(b *testing.B) {
	const n, cell = 8000, 16.0
	for _, bc := range []struct {
		name  string
		cross int // every cross-th point changes cell; 0 = none
	}{{"same-cell", 0}, {"mixed", 8}, {"cross-cell", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			g := NewGrid(cell)
			home := make([]SlotMove, n)
			away := make([]SlotMove, n)
			for i := range home {
				p := Vec2{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
				s := g.InsertSlot(ID(i+1), p)
				home[i] = SlotMove{Slot: s, Pos: p}
				away[i] = SlotMove{Slot: s, Pos: Vec2{X: p.X + 0.01, Y: p.Y}}
				if bc.cross > 0 && i%bc.cross == 0 {
					away[i].Pos.X = p.X + cell
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.MoveSlots(away)
				g.MoveSlots(home)
			}
		})
	}
}

// TestGridSteadyStateAllocs: a crowd drifting one cell a tick leaves
// every bucket and enters another each tick, through Move and through
// MoveSlots. Whole-cell steps keep the crowd's occupancy pattern
// (wrapped included), so once warm-up has sized the recycled buckets a
// tick allocates nothing.
func TestGridSteadyStateAllocs(t *testing.T) {
	const n, cell = 2000, 16.0
	rng := rand.New(rand.NewSource(9))
	home := make([]Vec2, n)
	for i := range home {
		// Multiples of 1/64: every drifted coordinate stays exact.
		home[i] = Vec2{X: float64(rng.Intn(2000*64)) / 64, Y: float64(rng.Intn(2000*64)) / 64}
	}
	byID, bySlot := NewGrid(cell), NewGrid(cell)
	moves := make([]SlotMove, n)
	for i, p := range home {
		byID.Insert(ID(i+1), p)
		moves[i].Slot = bySlot.InsertSlot(ID(i+1), p)
	}
	tick := 0
	step := func() {
		tick++
		d := Vec2{X: cell * float64(tick), Y: cell * float64(tick%3)}
		for i, p := range home {
			moves[i].Pos = p.Add(d)
			byID.Move(ID(i+1), moves[i].Pos)
		}
		bySlot.MoveSlots(moves)
	}
	for i := 0; i < 2*dirW; i++ { // two full trips round the directory
		step()
	}
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Fatalf("a drifting tick allocates %.1f objects, want 0", got)
	}
	for i, p := range home {
		want := p.Add(Vec2{X: cell * float64(tick), Y: cell * float64(tick%3)})
		if got, _ := byID.Pos(ID(i + 1)); got != want || bySlot.PosSlot(moves[i].Slot) != want {
			t.Fatalf("point %d drifted to %v / %v, want %v", i+1, got, bySlot.PosSlot(moves[i].Slot), want)
		}
	}
}

// BenchmarkGridQueryCircle probes at the mingle workload's density: one
// region's 2 000 units on a 1000×1000 square, cell 16, each querying
// radius 8 around itself — the nearby(self, 8) of every behavior.
func BenchmarkGridQueryCircle(b *testing.B) {
	const n, side, cell, radius = 2000, 1000.0, 16.0, 8.0
	rng := rand.New(rand.NewSource(2009))
	g := NewGrid(cell)
	centres := make([]Vec2, n)
	for i := range centres {
		centres[i] = Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		g.Insert(ID(i+1), centres[i])
	}
	var found []ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found = found[:0]
		g.QueryCircle(centres[i%n], radius, func(id ID, _ Vec2) bool {
			found = append(found, id)
			return true
		})
	}
}
