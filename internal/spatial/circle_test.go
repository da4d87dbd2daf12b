package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// circleOracle is what AppendCircle must return: QueryCircle's set minus
// skip, sorted.
func circleOracle(g *Grid, c Vec2, r float64, skip ID) []ID {
	var out []ID
	g.QueryCircle(c, r, func(id ID, _ Vec2) bool {
		if id != skip {
			out = append(out, id)
		}
		return true
	})
	slices.Sort(out)
	return out
}

// TestAppendCircleMatchesQueryCircle holds every probe to its own
// QueryCircle: dense crowds sharing cells, probes around members and
// around empty space, radii from zero past one directory period, aliased
// cells one period apart, and the degenerate centres and radii (NaN, ±Inf,
// negative) whose covers QueryCircle clips or empties.
func TestAppendCircleMatchesQueryCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	g := NewGrid(16)
	var pts []Vec2
	for i := 0; i < 600; i++ {
		p := Vec2{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		if i%7 == 0 { // one directory period away: an aliased cell
			p.X += dirW * 16
		}
		g.Insert(ID(i+1), p)
		pts = append(pts, p)
	}
	radii := []float64{0, 3, 8, 8, 8, 12.5, 40, 16 * dirW, math.Inf(1), -2, math.NaN()}
	check := func(c Vec2, r float64, skip ID) {
		t.Helper()
		got := AppendCircle(g, []ID{99999}, c, r, skip) // appends after what dst holds
		if got[0] != 99999 {
			t.Fatal("AppendCircle overwrote dst")
		}
		if want := circleOracle(g, c, r, skip); fmt.Sprint(got[1:]) != fmt.Sprint(want) {
			t.Fatalf("probe %v r=%v skip %d: got %v, want %v", c, r, skip, got[1:], want)
		}
	}
	for i, p := range pts {
		check(p, radii[i%len(radii)], ID(i+1))
	}
	for _, c := range []Vec2{{X: -50, Y: 20}, {X: math.NaN(), Y: 3}, {X: math.Inf(1), Y: 1}, {X: 1e12, Y: -1e12}} {
		for _, r := range radii {
			check(c, r, 0)
		}
	}
}

// BenchmarkAppendCircle is BenchmarkGridQueryCircle's probes answered by
// AppendCircle into one reused buffer.
func BenchmarkAppendCircle(b *testing.B) {
	const n, side, cell, radius = 2000, 1000.0, 16.0, 8.0
	rng := rand.New(rand.NewSource(2009))
	g := NewGrid(cell)
	centers := make([]Vec2, n)
	for i := range centers {
		centers[i] = Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
		g.Insert(ID(i+1), centers[i])
	}
	var found []ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found = AppendCircle(g, found[:0], centers[i%n], radius, ID(i%n+1))
	}
}
