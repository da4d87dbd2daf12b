package entity

import "math/rand"

// OrderedIndex is a secondary ordered index implemented as a skip list
// keyed by (Value, ID). It supports logarithmic insert/delete and ordered
// range scans, the operations the query processor's range predicates need.
// Skip lists are a standard main-memory database index (Redis sorted sets,
// MemSQL) and avoid B-tree rebalancing complexity.
//
// The level generator uses a fixed-seed rand.Rand so index shape — and
// therefore benchmark numbers — are reproducible.
type OrderedIndex struct {
	head  *skipNode
	level int
	size  int
	rnd   *rand.Rand
}

const skipMaxLevel = 24

type skipNode struct {
	key  Value
	id   ID
	next []*skipNode
}

// NewOrderedIndex returns an empty ordered index.
func NewOrderedIndex() *OrderedIndex {
	return &OrderedIndex{
		head:  &skipNode{next: make([]*skipNode, skipMaxLevel)},
		level: 1,
		rnd:   rand.New(rand.NewSource(0x5EED)),
	}
}

// less orders entries by key, breaking ties by ID so duplicates coexist.
func skipLess(k1 Value, id1 ID, k2 Value, id2 ID) bool {
	if c := Compare(k1, k2); c != 0 {
		return c < 0
	}
	return id1 < id2
}

func (ix *OrderedIndex) randLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && ix.rnd.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// Len returns the number of entries.
func (ix *OrderedIndex) Len() int { return ix.size }

// Insert adds the entry (v, id). Duplicate (v, id) pairs are not added
// twice; the second insert is a no-op returning false.
func (ix *OrderedIndex) Insert(v Value, id ID) bool {
	update := make([]*skipNode, skipMaxLevel)
	x := ix.head
	for i := ix.level - 1; i >= 0; i-- {
		for x.next[i] != nil && skipLess(x.next[i].key, x.next[i].id, v, id) {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && n.key.Equal(v) && n.id == id {
		return false
	}
	lvl := ix.randLevel()
	if lvl > ix.level {
		for i := ix.level; i < lvl; i++ {
			update[i] = ix.head
		}
		ix.level = lvl
	}
	node := &skipNode{key: v, id: id, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
	ix.size++
	return true
}

// Delete removes the entry (v, id), reporting whether it was present.
func (ix *OrderedIndex) Delete(v Value, id ID) bool {
	update := make([]*skipNode, skipMaxLevel)
	x := ix.head
	for i := ix.level - 1; i >= 0; i-- {
		for x.next[i] != nil && skipLess(x.next[i].key, x.next[i].id, v, id) {
			x = x.next[i]
		}
		update[i] = x
	}
	n := x.next[0]
	if n == nil || !n.key.Equal(v) || n.id != id {
		return false
	}
	for i := 0; i < ix.level; i++ {
		if update[i].next[i] == n {
			update[i].next[i] = n.next[i]
		}
	}
	for ix.level > 1 && ix.head.next[ix.level-1] == nil {
		ix.level--
	}
	ix.size--
	return true
}

// Range visits entries with lo ≤ key ≤ hi in key order, calling fn for
// each; iteration stops early if fn returns false. A null lo means
// unbounded below; a null hi means unbounded above.
func (ix *OrderedIndex) Range(lo, hi Value, fn func(v Value, id ID) bool) {
	x := ix.head
	if !lo.IsNull() {
		for i := ix.level - 1; i >= 0; i-- {
			for x.next[i] != nil && Compare(x.next[i].key, lo) < 0 {
				x = x.next[i]
			}
		}
	}
	for n := x.next[0]; n != nil; n = n.next[0] {
		if !hi.IsNull() && Compare(n.key, hi) > 0 {
			return
		}
		if !fn(n.key, n.id) {
			return
		}
	}
}

// Min returns the smallest entry, or ok=false when empty.
func (ix *OrderedIndex) Min() (v Value, id ID, ok bool) {
	n := ix.head.next[0]
	if n == nil {
		return Null(), 0, false
	}
	return n.key, n.id, true
}

// Max returns the largest entry, or ok=false when empty. This walks the
// top levels, so it is logarithmic, not linear.
func (ix *OrderedIndex) Max() (v Value, id ID, ok bool) {
	x := ix.head
	for i := ix.level - 1; i >= 0; i-- {
		for x.next[i] != nil {
			x = x.next[i]
		}
	}
	if x == ix.head {
		return Null(), 0, false
	}
	return x.key, x.id, true
}
