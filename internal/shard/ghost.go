package shard

import (
	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
)

// ghostBand is the rule deciding which shards mirror an entity: every
// shard other than its owner whose region rectangle lies within
// GhostBand of the entity's position. It reads the peer's partitioner,
// so it follows every rebalance and restore.
type ghostBand struct {
	part  *Partitioner
	band2 float64
	on    bool // false: ghosts disabled or a single shard
}

func newGhostBand(width float64, part *Partitioner) ghostBand {
	return ghostBand{
		part:  part,
		band2: width * width,
		on:    width > 0 && part.N() > 1,
	}
}

// mirrors reports whether shard di mirrors an entity at pos owned by
// shard owner.
func (b ghostBand) mirrors(di, owner int, pos spatial.Vec2) bool {
	return di != owner && b.part.Region(di).Dist2(pos) <= b.band2
}

// clear reports that mirrors is false for every shard: pos lies farther
// than the band, on owner's side, from each boundary line that owner's
// column and row share with another region. It is exact, not an
// estimate: bounds ascend, so every other region lies past one of those
// lines and its Dist2 is at least that side's d*d (float subtraction,
// squaring and adding a non-negative term are monotone, fused or not).
// A NaN coordinate fails every comparison it meets; on an axis with no
// shared line it meets none, but then every Dist2 is NaN and mirrors is
// false as well.
//
// clear and mirrors change together: FuzzGhostBandClear holds clear to
// mirrors' verdict, so a band predicate changed without its shortcut
// fails there.
func (b ghostBand) clear(owner int, pos spatial.Vec2) bool {
	p := b.part
	c, r := owner%p.cols, owner/p.cols
	return (c == 0 || b.far(pos.X-p.xs[c])) &&
		(c == p.cols-1 || b.far(p.xs[c+1]-pos.X)) &&
		(r == 0 || b.far(pos.Y-p.ys[r])) &&
		(r == p.rows-1 || b.far(p.ys[r+1]-pos.Y))
}

// far reports that a point d in front of a boundary line (d > 0 on the
// owner's side) lies outside the band.
func (b ghostBand) far(d float64) bool { return d > 0 && d*d > b.band2 }

// ghostField is one GhostField's last-shipped state on a mirror — the
// bookkeeping the mirror host evaluates ship policy against.
type ghostField struct {
	present  bool         // the field exists in the entity's table schema
	sent     float64      // last-shipped value, numeric fields
	sentVal  entity.Value // last-shipped value, non-numeric fields
	sentTick int64
}

// ghostRec is one mirror's bookkeeping, one ghostField per GhostField.
type ghostRec []ghostField

// specCol is one GhostField resolved against a concrete table schema:
// column index, whether the column exists, and whether its kind is
// numeric (KindInt/KindFloat — kinds AsFloat always coerces, so
// numeric-ness is schema-static, never per-value).
type specCol struct {
	ci      int
	present bool
	numeric bool
}

// tableSpecInfo caches the GhostField column resolution for one table,
// keyed by schema pointer so a migration-evolved schema invalidates it.
type tableSpecInfo struct {
	schema *entity.Schema
	cols   []specCol
}

// specInfoFor returns the GhostField column resolution for t, rebuilding
// it when the table's schema pointer changed (migrations swap schemas;
// Restore swaps tables).
func specInfoFor(cache map[*entity.Table]*tableSpecInfo, specs []replica.FieldSpec, t *entity.Table) *tableSpecInfo {
	s := t.Schema()
	if si := cache[t]; si != nil && si.schema == s {
		return si
	}
	if len(cache) > 128 {
		clear(cache) // Restore churn: drop stale table pointers
	}
	si := &tableSpecInfo{schema: s, cols: make([]specCol, len(specs))}
	for fi, spec := range specs {
		ci, ok := s.Col(spec.Name)
		if !ok {
			continue
		}
		k := s.ColAt(ci).Kind
		si.cols[fi] = specCol{ci: ci, present: true, numeric: k == entity.KindInt || k == entity.KindFloat}
	}
	cache[t] = si
	return si
}

// resetGhostRec fills rec (len(specs) long) with the spec'd fields of a
// freshly mirrored entity, read from its row (schema column order).
// Non-numeric fields are present too (their Exact class ships by
// equality); presence is schema-driven, not value-coercion-driven.
func resetGhostRec(rec ghostRec, si *tableSpecInfo, row []entity.Value, tick int64) {
	for fi := range rec {
		rec[fi] = ghostField{}
		if sc := si.cols[fi]; sc.present {
			rec[fi].present = true
			rec.markShipped(fi, sc.numeric, row[sc.ci], tick)
		}
	}
}

// shipField evaluates one (ghost, field) pair against the owner's
// current raw value: ship it, or skip it because the value kind supports
// no drift metric. Numeric fields compare as float but ship the raw
// value, preserving the column's native kind (int hp mirrors as int);
// non-numeric fields ship under Exact by equality, while non-numeric
// Coarse/Cosmetic report skip — there is no epsilon or staleness metric
// over strings and bools.
func (rec ghostRec) shipField(spec replica.FieldSpec, tick int64, fi int, numeric bool, raw entity.Value) (ship, skip bool) {
	f := &rec[fi]
	if numeric {
		cur, _ := raw.AsFloat()
		return spec.ShouldShip(cur, f.sent, tick, f.sentTick), false
	}
	if spec.Class == replica.Exact {
		return !raw.Equal(f.sentVal), false
	}
	return false, true
}

// markShipped records raw as field fi's last-shipped value at tick.
func (rec ghostRec) markShipped(fi int, numeric bool, raw entity.Value, tick int64) {
	f := &rec[fi]
	if numeric {
		f.sent, _ = raw.AsFloat()
	} else {
		f.sentVal = raw
	}
	f.sentTick = tick
}
