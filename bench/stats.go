package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read off fewer is one scheduler hiccup, not a property of the
// code.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of v and
// refuses when fewer than minBeyond samples lie beyond it.
func percentile(v []float64, p float64) (float64, error) {
	n := len(v)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 || n-1-idx < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, max(n-1-idx, 0), minBeyond)
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[idx], nil
}

// median returns the middle value of v (mean of the middle two for an
// even count) and 0 for an empty slice. Unlike percentile it serves
// small sets: repetitions, not ticks.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tickMin folds repetitions of one per-tick series into their
// element-wise minimum. The same seed gives every repetition the same
// work at tick i, so whatever one repetition took longer than another
// at that tick is interference, and the minimum strips it.
func tickMin(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := slices.Clone(reps[0])
	for _, r := range reps[1:] {
		for i := range out {
			out[i] = min(out[i], r[i])
		}
	}
	return out
}

// spread is (max − min) / median of the per-repetition values of one
// metric: the noise the repetitions themselves show.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / m
}

// unresolved reports whether a metric's own spread exceeds the bound a
// regression is judged by: a difference inside it is noise, so the
// metric reads "unresolved", never "unchanged".
func unresolved(spread, bound float64) bool { return bound > 0 && spread > bound }

// worse reports whether b is worse than a by more than bound (a share
// of a) plus an absolute floor, for a lower-is-better metric.
func worse(a, b, bound, floor float64) bool {
	return b-a > max(bound*a, floor)
}
