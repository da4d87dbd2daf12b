package spatial

// CellOf returns the key of the cell containing p under this grid's
// cell size.
func (g *Grid) CellOf(p Vec2) CellKey { return g.keyFor(p) }

// ForEachInCell visits every point stored in cell k (unspecified
// order). Iteration stops early if fn returns false.
func (g *Grid) ForEachInCell(k CellKey, fn func(id ID, p Vec2) bool) {
	bk := g.bucketAt(entry(k.X, k.Y))
	for i, s := range bk.slots {
		if g.slots[s].key != k {
			continue // an aliased cell sharing the bucket
		}
		if pt := bk.pts[i]; !fn(pt.ID, pt.Pos) {
			return
		}
	}
}
