package spatial

import "container/heap"

// QuadTree is a region quadtree over a fixed world bound. Leaves hold up
// to qtCapacity points and split until qtMaxDepth. Points outside the
// world bound are clamped for placement but keep their true coordinates,
// so queries remain correct for stragglers.
type QuadTree struct {
	root   *qtNode
	bounds Rect
	pos    map[ID]Vec2
}

const (
	qtCapacity = 16
	qtMaxDepth = 12
)

type qtNode struct {
	bounds Rect
	depth  int
	items  []Point
	kids   *[4]qtNode // nil for leaves
}

// NewQuadTree returns an empty quadtree covering bounds.
func NewQuadTree(bounds Rect) *QuadTree {
	return &QuadTree{
		root:   &qtNode{bounds: bounds},
		bounds: bounds,
		pos:    make(map[ID]Vec2),
	}
}

// Insert implements Index.
func (q *QuadTree) Insert(id ID, p Vec2) {
	if _, ok := q.pos[id]; ok {
		q.Remove(id)
	}
	q.root.insert(Point{ID: id, Pos: p}, q.bounds.Clamp(p))
	q.pos[id] = p
}

func (n *qtNode) quadrant(p Vec2) int {
	c := n.bounds.Center()
	idx := 0
	if p.X > c.X {
		idx |= 1
	}
	if p.Y > c.Y {
		idx |= 2
	}
	return idx
}

func (n *qtNode) childBounds(i int) Rect {
	c := n.bounds.Center()
	switch i {
	case 0:
		return Rect{Min: n.bounds.Min, Max: c}
	case 1:
		return Rect{Min: Vec2{c.X, n.bounds.Min.Y}, Max: Vec2{n.bounds.Max.X, c.Y}}
	case 2:
		return Rect{Min: Vec2{n.bounds.Min.X, c.Y}, Max: Vec2{c.X, n.bounds.Max.Y}}
	default:
		return Rect{Min: c, Max: n.bounds.Max}
	}
}

// insert places pt using the clamped position cp for routing.
func (n *qtNode) insert(pt Point, cp Vec2) {
	if n.kids != nil {
		i := n.quadrant(cp)
		n.kids[i].insert(pt, cp)
		return
	}
	n.items = append(n.items, pt)
	if len(n.items) > qtCapacity && n.depth < qtMaxDepth {
		n.split()
	}
}

func (n *qtNode) split() {
	var kids [4]qtNode
	for i := range kids {
		kids[i] = qtNode{bounds: n.childBounds(i), depth: n.depth + 1}
	}
	n.kids = &kids
	items := n.items
	n.items = nil
	for _, pt := range items {
		cp := n.bounds.Clamp(pt.Pos)
		n.kids[n.quadrant(cp)].insert(pt, cp)
	}
}

// Remove implements Index.
func (q *QuadTree) Remove(id ID) bool {
	p, ok := q.pos[id]
	if !ok {
		return false
	}
	q.root.remove(id, q.bounds.Clamp(p))
	delete(q.pos, id)
	return true
}

func (n *qtNode) remove(id ID, cp Vec2) bool {
	if n.kids != nil {
		return n.kids[n.quadrant(cp)].remove(id, cp)
	}
	for i := range n.items {
		if n.items[i].ID == id {
			n.items[i] = n.items[len(n.items)-1]
			n.items = n.items[:len(n.items)-1]
			return true
		}
	}
	return false
}

// Move implements Index.
func (q *QuadTree) Move(id ID, p Vec2) {
	q.Insert(id, p)
}

// Pos implements Index.
func (q *QuadTree) Pos(id ID) (Vec2, bool) {
	p, ok := q.pos[id]
	return p, ok
}

// Len implements Index.
func (q *QuadTree) Len() int { return len(q.pos) }

// QueryRect implements Index.
func (q *QuadTree) QueryRect(r Rect, fn func(id ID, p Vec2) bool) {
	q.root.queryRect(r, fn)
}

func (n *qtNode) queryRect(r Rect, fn func(id ID, p Vec2) bool) bool {
	if !n.bounds.Intersects(r) && n.kids == nil && len(n.items) == 0 {
		return true
	}
	if n.kids != nil {
		for i := range n.kids {
			if n.kids[i].bounds.Intersects(r) {
				if !n.kids[i].queryRect(r, fn) {
					return false
				}
			}
		}
		return true
	}
	for _, pt := range n.items {
		if r.Contains(pt.Pos) {
			if !fn(pt.ID, pt.Pos) {
				return false
			}
		}
	}
	return true
}

// QueryCircle implements Index.
func (q *QuadTree) QueryCircle(c Vec2, radius float64, fn func(id ID, p Vec2) bool) {
	r2 := radius * radius
	bound := RectAround(c, radius)
	q.root.queryCircle(bound, c, r2, fn)
}

func (n *qtNode) queryCircle(bound Rect, c Vec2, r2 float64, fn func(id ID, p Vec2) bool) bool {
	if n.kids != nil {
		for i := range n.kids {
			if n.kids[i].bounds.Intersects(bound) {
				if !n.kids[i].queryCircle(bound, c, r2, fn) {
					return false
				}
			}
		}
		return true
	}
	for _, pt := range n.items {
		if pt.Pos.Dist2(c) <= r2 {
			if !fn(pt.ID, pt.Pos) {
				return false
			}
		}
	}
	return true
}

// KNN implements Index with best-first search: a min-heap mixes subtree
// lower bounds and concrete points, so the search touches only the nodes
// that can still improve the answer.
func (q *QuadTree) KNN(c Vec2, k int) []Neighbor {
	if k <= 0 || len(q.pos) == 0 {
		return nil
	}
	acc := newKNNAcc(k)
	pq := qtPQ{{node: q.root, dist2: q.root.bounds.Dist2(c)}}
	for len(pq) > 0 {
		top := heap.Pop(&pq).(qtPQItem)
		if top.dist2 > acc.worst() {
			break
		}
		n := top.node
		if n.kids != nil {
			for i := range n.kids {
				kid := &n.kids[i]
				d2 := kid.bounds.Dist2(c)
				if d2 <= acc.worst() {
					heap.Push(&pq, qtPQItem{node: kid, dist2: d2})
				}
			}
			continue
		}
		for _, pt := range n.items {
			acc.offer(pt.ID, pt.Pos, pt.Pos.Dist2(c))
		}
	}
	return acc.results()
}

type qtPQItem struct {
	node  *qtNode
	dist2 float64
}

type qtPQ []qtPQItem

func (h qtPQ) Len() int           { return len(h) }
func (h qtPQ) Less(i, j int) bool { return h[i].dist2 < h[j].dist2 }
func (h qtPQ) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *qtPQ) Push(x any)        { *h = append(*h, x.(qtPQItem)) }
func (h *qtPQ) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
