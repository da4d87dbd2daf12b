package spatial

import (
	"container/heap"
	"math"
	"sort"
)

// Neighbor is one kNN result.
type Neighbor struct {
	ID    ID
	Pos   Vec2
	Dist2 float64
}

// knnAcc accumulates the k nearest candidates seen so far using a
// max-heap keyed by distance, so the current worst candidate pops first.
type knnAcc struct {
	k int
	h neighborMaxHeap
}

func newKNNAcc(k int) *knnAcc { return &knnAcc{k: k} }

// offer considers a candidate. A NaN distance (a NaN coordinate in the
// candidate or the centre) ranks as +Inf, so it never displaces a
// comparable candidate.
func (a *knnAcc) offer(id ID, p Vec2, d2 float64) {
	if a.k <= 0 {
		return
	}
	if d2 != d2 {
		d2 = math.Inf(1)
	}
	if len(a.h) < a.k {
		heap.Push(&a.h, Neighbor{ID: id, Pos: p, Dist2: d2})
		return
	}
	if d2 < a.h[0].Dist2 {
		a.h[0] = Neighbor{ID: id, Pos: p, Dist2: d2}
		heap.Fix(&a.h, 0)
	}
}

// worst returns the current pruning bound: the kth-best distance once k
// candidates are held, +inf before that.
func (a *knnAcc) worst() float64 {
	if len(a.h) < a.k {
		return math.Inf(1)
	}
	return a.h[0].Dist2
}

// results returns the accumulated neighbors sorted by ascending distance,
// ties broken by ID for determinism.
func (a *knnAcc) results() []Neighbor {
	out := make([]Neighbor, len(a.h))
	copy(out, a.h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist2 != out[j].Dist2 {
			return out[i].Dist2 < out[j].Dist2
		}
		return out[i].ID < out[j].ID
	})
	return out
}

type neighborMaxHeap []Neighbor

func (h neighborMaxHeap) Len() int           { return len(h) }
func (h neighborMaxHeap) Less(i, j int) bool { return h[i].Dist2 > h[j].Dist2 }
func (h neighborMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *neighborMaxHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *neighborMaxHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
