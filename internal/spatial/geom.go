// Package spatial implements the spatial data structures the paper's
// Performance section surveys: a uniform grid, a quadtree, a k-d tree and
// a BSP tree for indexed range/kNN queries over moving entities, plus the
// games-specific structures a database audience may not know — a
// designer-annotated navigation mesh with A* pathfinding and a grid A*
// baseline.
package spatial

import "math"

// Vec2 is a point or vector in the 2-D game world.
type Vec2 struct {
	X, Y float64
}

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Cross returns the 2-D cross product (z-component of v × o).
func (v Vec2) Cross(o Vec2) float64 { return v.X*o.Y - v.Y*o.X }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Sqrt(v.Len2()) }

// Len2 returns the squared length of v.
func (v Vec2) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Len() }

// Dist2 returns the squared distance between v and o.
func (v Vec2) Dist2(o Vec2) float64 { return v.Sub(o).Len2() }

// Normalize returns v scaled to unit length, or the zero vector if v is
// zero.
func (v Vec2) Normalize() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return v.Scale(1 / l)
}

// Lerp returns the linear interpolation between v and o at parameter t.
func (v Vec2) Lerp(o Vec2, t float64) Vec2 {
	return Vec2{v.X + (o.X-v.X)*t, v.Y + (o.Y-v.Y)*t}
}

// Rect is an axis-aligned rectangle with inclusive bounds on both sides.
type Rect struct {
	Min, Max Vec2
}

// NewRect builds a rectangle from its extreme coordinates, normalizing
// order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Vec2{x0, y0}, Max: Vec2{x1, y1}}
}

// RectAround returns the bounding square of the circle at c with radius r.
func RectAround(c Vec2, r float64) Rect {
	return Rect{Min: Vec2{c.X - r, c.Y - r}, Max: Vec2{c.X + r, c.Y + r}}
}

// Contains reports whether p lies in the rectangle (inclusive).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Intersects reports whether the rectangles overlap (touching counts).
func (r Rect) Intersects(o Rect) bool {
	return r.Min.X <= o.Max.X && r.Max.X >= o.Min.X &&
		r.Min.Y <= o.Max.Y && r.Max.Y >= o.Min.Y
}

// Center returns the rectangle's center point.
func (r Rect) Center() Vec2 {
	return Vec2{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width returns the X extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Dist2 returns the squared distance from p to the rectangle (zero when p
// is inside). KNN search uses it to prune subtrees.
func (r Rect) Dist2(p Vec2) float64 {
	// The builtin max treats NaN and signed zeros as math.Max does and
	// compiles inline.
	dx := max(0, r.Min.X-p.X, p.X-r.Max.X)
	dy := max(0, r.Min.Y-p.Y, p.Y-r.Max.Y)
	return dx*dx + dy*dy
}

// Clamp returns p moved to the nearest point inside the rectangle; a NaN
// coordinate stays NaN. The builtin min and max compile inline and give
// math.Min and math.Max's results on any rectangle whose bounds are not
// NaN, whose Min is not +Inf and whose Max is not −Inf (every rectangle
// of positive area): only past those bounds do math's infinity rules
// outrank a NaN argument where the builtins return NaN.
func (r Rect) Clamp(p Vec2) Vec2 {
	return Vec2{
		X: min(max(p.X, r.Min.X), r.Max.X),
		Y: min(max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Segment is a directed line segment between two points.
type Segment struct {
	A, B Vec2
}

// side classifies p relative to the infinite line through s: >0 left,
// <0 right, 0 on the line (within eps).
func (s Segment) side(p Vec2) float64 {
	return s.B.Sub(s.A).Cross(p.Sub(s.A))
}

// segEps absorbs floating-point noise in segment classification.
const segEps = 1e-9

// Intersects reports whether two segments properly intersect or touch.
func (s Segment) Intersects(o Segment) bool {
	d1 := s.side(o.A)
	d2 := s.side(o.B)
	d3 := o.side(s.A)
	d4 := o.side(s.B)
	if ((d1 > segEps && d2 < -segEps) || (d1 < -segEps && d2 > segEps)) &&
		((d3 > segEps && d4 < -segEps) || (d3 < -segEps && d4 > segEps)) {
		return true
	}
	onSeg := func(seg Segment, p Vec2) bool {
		if math.Abs(seg.side(p)) > segEps {
			return false
		}
		return math.Min(seg.A.X, seg.B.X)-segEps <= p.X && p.X <= math.Max(seg.A.X, seg.B.X)+segEps &&
			math.Min(seg.A.Y, seg.B.Y)-segEps <= p.Y && p.Y <= math.Max(seg.A.Y, seg.B.Y)+segEps
	}
	return onSeg(s, o.A) || onSeg(s, o.B) || onSeg(o, s.A) || onSeg(o, s.B)
}
