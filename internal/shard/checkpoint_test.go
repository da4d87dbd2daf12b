package shard

import (
	"errors"
	"math"
	"slices"
	"testing"

	"gamedb/internal/wire"
)

// rewriteBounds re-encodes one peer part of a snapshot with its
// partition bounds passed through edit, the rest of the part unchanged.
func rewriteBounds(t *testing.T, part []byte, edit func(xs, ys []float64)) []byte {
	t.Helper()
	d := wire.NewDec(part, nil)
	var e wire.Enc
	e.Varint(d.Varint())
	e.Uvarint(d.Uvarint())
	bounds := make([][]float64, 2)
	for i := range bounds {
		bounds[i] = make([]float64, d.Uvarint())
		for j := range bounds[i] {
			bounds[i][j] = d.F64()
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	edit(bounds[0], bounds[1])
	for _, b := range bounds {
		e.Uvarint(uint64(len(b)))
		for _, v := range b {
			e.F64(v)
		}
	}
	return append(e.Bytes(), part[len(part)-d.Remaining():]...)
}

// TestRestoreRefusesBadPartitionBounds: a snapshot part whose partition
// bounds are not finite, do not ascend, or move an end bound off the
// map's edge is refused with a *PartitionBoundsError before anything
// changes — the peer keeps its tick, its partition and its world's
// digest — while the same part with its bounds untouched restores.
func TestRestoreRefusesBadPartitionBounds(t *testing.T) {
	cfg := benchConfig(8) // 4×2: three interior column bounds, one row bound
	cfg.RebalanceEvery = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := driftScenario.Seed(rt, Crowd{Units: 800, Side: 2000, Seed: 38}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p := rt.peers[5]
	part, err := p.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	digest := p.w.Digest()
	tick, xs, ys := p.tick, slices.Clone(p.part.xs), slices.Clone(p.part.ys)

	for _, c := range []struct {
		name, axis, reason string
		index              int
		edit               func(xs, ys []float64)
	}{
		{"NaN bound", "x", "not finite", 2, func(xs, ys []float64) { xs[2] = math.NaN() }},
		{"infinite bound", "y", "not finite", 1, func(xs, ys []float64) { ys[1] = math.Inf(1) }},
		{"swapped interior bounds", "x", "not ascending", 3, func(xs, ys []float64) { xs[2], xs[3] = xs[3], xs[2] }},
		{"moved low end bound", "x", "moved end bound", 0, func(xs, ys []float64) { xs[0] -= 1 }},
		{"moved high end bound", "y", "moved end bound", 2, func(xs, ys []float64) { ys[2] = math.Nextafter(ys[2], 0) }},
	} {
		err := p.restore(rewriteBounds(t, part, c.edit))
		var pb *PartitionBoundsError
		if !errors.As(err, &pb) {
			t.Fatalf("%s: restore returned %v, want a *PartitionBoundsError", c.name, err)
		}
		if pb.Shard != 5 || pb.Axis != c.axis || pb.Index != c.index || pb.Reason != c.reason {
			t.Fatalf("%s: %+v, want shard 5, %s[%d] %s", c.name, *pb, c.axis, c.index, c.reason)
		}
		if p.w.Digest() != digest || p.tick != tick || !slices.Equal(p.part.xs, xs) || !slices.Equal(p.part.ys, ys) {
			t.Fatalf("%s: the refused restore changed the peer", c.name)
		}
	}
	if err := p.restore(rewriteBounds(t, part, func(xs, ys []float64) {})); err != nil {
		t.Fatalf("the untouched part: %v", err)
	}
	if p.tick != 4 {
		t.Fatalf("restored to tick %d, want 4", p.tick)
	}
}
