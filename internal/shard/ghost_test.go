package shard

import (
	"math"
	"math/rand"
	"testing"

	"gamedb/internal/spatial"
)

// The band shortcut: ghostBand.clear skips the per-shard band test for
// an entity clear of every boundary line its owner shares, and must
// never skip one that some shard mirrors. These tests hold it to
// mirrors' verdict over every grid shape, rebalanced partitions, band
// widths of 0, sub-ulp, ordinary and wider than a region, and positions
// on, one ulp either side of, and exactly a band away from every bound,
// far off the map, NaN and ±Inf. A change to mirrors that leaves clear
// behind fails here.

// bandWorld is the benchmark's map.
var bandWorld = spatial.NewRect(0, 0, 2000, 2000)

// bandWidths are the band widths the tests draw from: none, sub-ulp at
// the map's scale, subnormal squared to zero, ordinary, and wider than
// any region.
var bandWidths = []float64{0, math.SmallestNonzeroFloat64, 1e-9, 24, 250, 5000}

// bandCase builds an n-shard partition of bandWorld, applies rebalances
// Rebalance calls with per-shard counts and shift fractions drawn from
// rng, and returns it with its band at width.
func bandCase(t testing.TB, n int, rng *rand.Rand, rebalances int, width float64) (*Partitioner, ghostBand) {
	t.Helper()
	part, err := NewPartitioner(bandWorld, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, n)
	for k := 0; k < rebalances; k++ {
		for i := range counts {
			counts[i] = rng.Int63n(1000)
		}
		part.Rebalance(counts, 0.02+0.3*rng.Float64())
	}
	return part, newGhostBand(width, part)
}

// bandProbes returns coordinates that stress one axis of the shortcut:
// each bound exactly and one ulp either side, a band width either side
// of it and one ulp past that, the midpoints between bounds, far off the
// map on both sides, NaN and ±Inf.
func bandProbes(bounds []float64, width float64) []float64 {
	var out []float64
	for i, v := range bounds {
		out = append(out, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		for _, e := range []float64{v - width, v + width} {
			out = append(out, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		if i > 0 {
			out = append(out, (bounds[i-1]+v)/2)
		}
	}
	return append(out, -1e12, 1e12, math.NaN(), math.Inf(-1), math.Inf(1))
}

// checkClear fails t when clear(owner, pos) holds while some shard
// mirrors pos, for every owner — Locate's and all the others. The
// shortcut is exact for any owner, and only owners Locate never picks
// put pos on the far side of a line: without them a dropped d > 0 guard
// would go unseen. It reports whether clear held for Locate's owner.
func checkClear(t testing.TB, part *Partitioner, b ghostBand, pos spatial.Vec2) bool {
	t.Helper()
	for owner := 0; owner < part.N(); owner++ {
		if !b.clear(owner, pos) {
			continue
		}
		for di := 0; di < part.N(); di++ {
			if b.mirrors(di, owner, pos) {
				t.Fatalf("%d shards, xs %v ys %v, band² %v: clear(%d, %v) holds but shard %d (%v, dist² %v) mirrors it",
					part.N(), part.xs, part.ys, b.band2, owner, pos, di, part.Region(di), part.Region(di).Dist2(pos))
			}
		}
	}
	return b.clear(part.Locate(pos), pos)
}

// TestGhostBandClearIsExact sweeps every grid shape of 1–9 shards,
// unrebalanced and after 1–3 drawn rebalances, every band width, and
// every pair of probe coordinates. It also holds the shortcut to being
// one: at an ordinary width, the centre of every region wider and taller
// than two bands is clear.
func TestGhostBandClearIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for n := 1; n <= 9; n++ {
		for rebalances := 0; rebalances <= 3; rebalances++ {
			for _, width := range bandWidths {
				part, b := bandCase(t, n, rng, rebalances, width)
				xs, ys := bandProbes(part.xs, width), bandProbes(part.ys, width)
				for _, x := range xs {
					for _, y := range ys {
						checkClear(t, part, b, spatial.Vec2{X: x, Y: y})
					}
				}
				if width != 24 {
					continue
				}
				for i := 0; i < n; i++ {
					r := part.Region(i)
					c := spatial.Vec2{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
					if r.Width() > 2*width && r.Height() > 2*width && !checkClear(t, part, b, c) {
						t.Fatalf("%d shards: the centre %v of region %d (%v) is not clear of a %v band", n, c, i, r, width)
					}
				}
			}
		}
	}
}

// FuzzGhostBandClear lets the fuzzer pick the shape, the rebalances, the
// band width and each coordinate — a probe of bandProbes or a raw value.
func FuzzGhostBandClear(f *testing.F) {
	f.Add(uint8(7), int64(1), uint8(2), uint8(3), uint16(0), uint16(4), 1000.0, 1000.0)
	f.Add(uint8(3), int64(2), uint8(0), uint8(4), uint16(9), uint16(2), -3.5, 2e6)
	f.Add(uint8(5), int64(3), uint8(5), uint8(1), uint16(14), uint16(31), math.NaN(), math.Inf(1))
	f.Add(uint8(8), int64(4), uint8(1), uint8(5), uint16(65535), uint16(65535), 1476.0, -24.0)
	f.Fuzz(func(t *testing.T, shards uint8, seed int64, rebalances, widthSel uint8, xSel, ySel uint16, xRaw, yRaw float64) {
		width := bandWidths[int(widthSel)%len(bandWidths)]
		part, b := bandCase(t, 1+int(shards%9), rand.New(rand.NewSource(seed)), int(rebalances%4), width)
		pick := func(sel uint16, raw float64, bounds []float64) float64 {
			probes := append(bandProbes(bounds, width), raw)
			return probes[int(sel)%len(probes)]
		}
		checkClear(t, part, b, spatial.Vec2{X: pick(xSel, xRaw, part.xs), Y: pick(ySel, yRaw, part.ys)})
	})
}
