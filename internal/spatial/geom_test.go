package spatial

import (
	"math"
	"testing"
)

// TestClampMatchesMathMinMax pins Rect.Clamp, written with the builtin
// min and max, against the math.Min(math.Max(…)) form it replaced, bit
// for bit (a NaN matches any NaN: payloads are not part of either
// contract): NaN in every argument position, ±0 against ±0 bounds, ±Inf,
// and points inside, on and outside the rectangle, inverted rectangles
// included. The two agree whenever neither bound is NaN, the lower bound
// is not +Inf and the upper not −Inf — every rectangle of positive
// finite area among them. Elsewhere math's infinity rules outrank NaN
// (math.Max(NaN, +Inf) is +Inf) where the builtins return NaN; the test
// holds every such difference to exactly that.
func TestClampMatchesMathMinMax(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Inf(-1), -1e300, -5, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, 5, 10, math.Nextafter(10, 11), 15, math.Inf(1),
	}
	old := func(p, lo, hi float64) float64 { return math.Min(math.Max(p, lo), hi) }
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	ordinary := func(lo, hi float64) bool {
		return !math.IsNaN(lo) && !math.IsNaN(hi) && !math.IsInf(lo, 1) && !math.IsInf(hi, -1)
	}
	check := func(axis string, got, p, lo, hi float64) bool {
		want := old(p, lo, hi)
		if same(got, want) {
			return false
		}
		if ordinary(lo, hi) || !math.IsNaN(got) || math.IsNaN(want) {
			t.Fatalf("Clamp %s: %v into [%v, %v] = %v, math.Min/Max give %v", axis, p, lo, hi, got, want)
		}
		return true
	}
	differ := 0
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				// X takes (point a, bounds b..c); Y the rotation (c, a..b),
				// so every value meets every argument position on both axes.
				r := Rect{Min: Vec2{X: b, Y: a}, Max: Vec2{X: c, Y: b}}
				got := r.Clamp(Vec2{X: a, Y: c})
				if check("x", got.X, a, b, c) {
					differ++
				}
				if check("y", got.Y, c, a, b) {
					differ++
				}
			}
		}
	}
	if differ == 0 {
		t.Fatal("no NaN-against-infinity case reached the non-ordinary bounds")
	}
}
