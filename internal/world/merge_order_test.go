package world

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gamedb/internal/entity"
)

// stableOrder is the reference: sort.SliceStable on (Src, Seq).
func stableOrder(in []Effect) []Effect {
	out := slices.Clone(in)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ascendingRun appends one producer's output: n sources ascending from
// a random start, each emitting a few records (Seq 0..). Every record's
// Target is unique, so a misplaced record cannot hide.
func ascendingRun(rng *rand.Rand, dst []Effect, n int) []Effect {
	src := entity.ID(rng.Intn(50))
	for i := 0; i < n; i++ {
		src += entity.ID(1 + rng.Intn(3))
		e := Effect{Kind: EffectAdd, Src: src, Col: "x", Val: entity.Float(rng.Float64())}
		switch {
		case rng.Intn(8) == 0: // a spawn and a write to its provisional id
			e.Kind, e.Col, e.Target = EffectSpawn, "unit", provBase+src*maxSpawnsPerCall
			dst = append(dst, e)
			e.Kind, e.Col, e.Seq = EffectSet, "x", 1
			dst = append(dst, e)
		default:
			for s := int32(0); s < int32(1+rng.Intn(3)); s++ {
				e.Seq, e.Target = s, entity.ID(len(dst))
				dst = append(dst, e)
			}
		}
	}
	return dst
}

// TestSortEffectsMatchesStableSort: for buffers of 0, 1, 2 and many
// ascending runs (one per worker, as the workers emit them), reversed and shuffled input, and input with tied
// (Src, Seq) keys, sortEffects yields exactly sort.SliceStable's
// sequence.
func TestSortEffectsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := &World{}
	check := func(name string, in []Effect) {
		t.Helper()
		want := stableOrder(in)
		got := slices.Clone(in)
		w.sortEffects(got)
		if !slices.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s (%d records): first difference at %d: got (%d,%d) target %d, want (%d,%d) target %d",
						name, len(in), i, got[i].Src, got[i].Seq, got[i].Target, want[i].Src, want[i].Seq, want[i].Target)
				}
			}
		}
	}
	check("empty", nil)
	for _, runs := range []int{1, 2, 3, 8, 33} {
		for rep := 0; rep < 20; rep++ {
			var in []Effect
			for r := 0; r < runs; r++ {
				in = ascendingRun(rng, in, rng.Intn(40))
			}
			check("runs", in)
			if runs == 1 {
				check("sorted", stableOrder(in))
			}
			slices.Reverse(in)
			check("reversed", in)
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			check("shuffled", in)
			// Ties: barrier re-runs of one source at two generations share
			// (Src, Seq); they must keep their input order.
			for i := range in {
				in[i].Src, in[i].Seq = entity.ID(rng.Intn(6)), int32(rng.Intn(3))
			}
			check("ties", in)
		}
	}
}

// TestSortEffectsReusesScratch: once the key scratch has grown, ordering
// a buffer of the same size allocates nothing.
func TestSortEffectsReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var in []Effect
	for r := 0; r < 4; r++ {
		in = ascendingRun(rng, in, 200)
	}
	w := &World{}
	buf := make([]Effect, len(in))
	run := func() {
		copy(buf, in)
		w.sortEffects(buf)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("sortEffects allocates %.0f objects per call after warm-up", allocs)
	}
}

// BenchmarkCollectMerge merges what one tick's workers emit for 4000
// entities — one ascending run per worker — at 1 worker and 4.
func BenchmarkCollectMerge(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(16))
			w := &World{}
			var bufs []*EffectBuffer
			for wi := 0; wi < workers; wi++ {
				buf := &EffectBuffer{}
				buf.effects = ascendingRun(rng, buf.effects, 4000/workers)
				bufs = append(bufs, buf)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(w.collectMerge(bufs)) == 0 {
					b.Fatal("empty merge")
				}
			}
		})
	}
}
