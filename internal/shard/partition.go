// Package shard is the sharded world runtime: it partitions the map into
// N spatial regions, runs each region as an independent world.World
// ticking in parallel on the shared worker pool, and coordinates the
// shards through a tick barrier that performs deterministic cross-shard
// entity handoff
// and ghost replication of boundary neighbors.
//
// This is the paper's scale story made concrete: causality bubbles and
// weakened replication tiers exist so world state can be partitioned and
// processed independently; here the partitions are long-lived region
// shards, the "bubbles between shards" are handled by mirroring a border
// band of neighbor entities as read-only ghosts (shipped under the
// replica package's Coarse consistency class), and entities migrate
// between shards at the tick barrier when they cross a region boundary.
package shard

import (
	"fmt"
	"math"

	"gamedb/internal/spatial"
)

// Partitioner assigns region rectangles to shards. The world rectangle
// is cut into a cols×rows grid of regions (row-major shard order) whose
// interior column boundaries can shift under load: Rebalance nudges them
// toward equalized per-column entity counts, the load-driven analogue of
// the static split.
type Partitioner struct {
	world      spatial.Rect
	cols, rows int
	xs         []float64 // len cols+1, ascending, xs[0]=Min.X, xs[cols]=Max.X
	ys         []float64 // len rows+1, ascending
}

// gridShape factors n into cols×rows with cols ≥ rows, preferring the
// squarest factorization so regions stay compact.
func gridShape(n int) (cols, rows int) {
	rows = int(math.Sqrt(float64(n)))
	for rows > 1 && n%rows != 0 {
		rows--
	}
	if rows < 1 {
		rows = 1
	}
	return n / rows, rows
}

// NewPartitioner splits world into n regions. n must be ≥ 1, and the
// world rectangle must have finite corners and a finite, positive width
// and height: a NaN or infinite bound would make every region bound NaN
// and send every position to one shard.
func NewPartitioner(world spatial.Rect, n int) (*Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	w, h := world.Width(), world.Height()
	for _, v := range [...]float64{world.Min.X, world.Min.Y, world.Max.X, world.Max.Y, w, h} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("shard: world rect %v must have finite corners, width and height", world)
		}
	}
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("shard: world rect must have positive area")
	}
	cols, rows := gridShape(n)
	p := &Partitioner{world: world, cols: cols, rows: rows}
	p.xs = make([]float64, cols+1)
	for i := 0; i <= cols; i++ {
		p.xs[i] = world.Min.X + world.Width()*float64(i)/float64(cols)
	}
	p.ys = make([]float64, rows+1)
	for j := 0; j <= rows; j++ {
		p.ys[j] = world.Min.Y + world.Height()*float64(j)/float64(rows)
	}
	return p, nil
}

// N returns the number of regions.
func (p *Partitioner) N() int { return p.cols * p.rows }

// Region returns shard i's current rectangle (row-major).
func (p *Partitioner) Region(i int) spatial.Rect {
	c, r := i%p.cols, i/p.cols
	return spatial.Rect{
		Min: spatial.Vec2{X: p.xs[c], Y: p.ys[r]},
		Max: spatial.Vec2{X: p.xs[c+1], Y: p.ys[r+1]},
	}
}

// Locate returns the shard owning pos. Positions outside the world
// rectangle are clamped, so every position maps to exactly one shard;
// interior boundaries belong to the region on their right/top
// (half-open intervals), making ownership unambiguous.
func (p *Partitioner) Locate(pos spatial.Vec2) int {
	pos = p.world.Clamp(pos)
	c := 0
	for c+1 < p.cols && pos.X >= p.xs[c+1] {
		c++
	}
	r := 0
	for r+1 < p.rows && pos.Y >= p.ys[r+1] {
		r++
	}
	return r*p.cols + c
}

// Rebalance shifts interior column boundaries toward equalized load.
// counts is the per-shard local entity count (shard order); per-column
// loads are the sums over that column's rows. Each interior boundary
// moves at most maxShiftFrac of the world width per call and never
// closer than minWidthFrac of the world width to its neighbors, so the
// partition stays valid and the adjustment is deterministic.
func (p *Partitioner) Rebalance(counts []int64, maxShiftFrac float64) {
	if len(counts) != p.N() || p.cols < 2 {
		return
	}
	colLoad := make([]float64, p.cols)
	var total float64
	for i, n := range counts {
		colLoad[i%p.cols] += float64(n)
		total += float64(n)
	}
	if total == 0 {
		return
	}
	if maxShiftFrac <= 0 {
		maxShiftFrac = 0.02
	}
	const minWidthFrac = 0.05
	maxShift := p.world.Width() * maxShiftFrac
	minWidth := p.world.Width() * minWidthFrac / float64(p.cols)
	// cum[i] is the load left of boundary i; target is an equal share
	// per column. Move each interior boundary toward where its target
	// cumulative load sits, assuming load is locally uniform.
	cum := 0.0
	for b := 1; b < p.cols; b++ {
		cum += colLoad[b-1]
		target := total * float64(b) / float64(p.cols)
		var shift float64
		switch {
		case cum > target && colLoad[b-1] > 0:
			// Left side overloaded: shrink it.
			shift = -(cum - target) / colLoad[b-1] * (p.xs[b] - p.xs[b-1])
		case cum < target && colLoad[b] > 0:
			// Right side overloaded: grow the left side.
			shift = (target - cum) / colLoad[b] * (p.xs[b+1] - p.xs[b])
		}
		if shift > maxShift {
			shift = maxShift
		}
		if shift < -maxShift {
			shift = -maxShift
		}
		nx := p.xs[b] + shift
		if nx < p.xs[b-1]+minWidth {
			nx = p.xs[b-1] + minWidth
		}
		if nx > p.xs[b+1]-minWidth {
			nx = p.xs[b+1] - minWidth
		}
		p.xs[b] = nx
	}
}
