package world

import (
	"math/bits"

	"gamedb/internal/entity"
)

// Digest returns the world's state digest: the sum, mod 2^64, of one
// 64-bit hash per owned row, ghost mirrors left out. A row's hash folds
// its table, its id and then each cell, one 64-bit word at a time, and
// ends in the splitmix64 finalizer. The sum makes the digest a multiset
// hash (Clarke et al., Incremental Multiset Hash Functions): it does not
// depend on row order or storage position, and the digest of rows
// spread across several worlds is the sum of their digests, so a
// sharded grid adds its peers' digests. Floats fold bit-exactly (-0 is
// not +0, NaN payloads differ) and every cell's kind salts its word. It
// allocates nothing once the table list is cached.
//
// Ghost mirrors are derived state: the table pass sums every row, and
// one walk of the directory takes the ghosts' rows back out, which
// costs less than probing every row's mark.
func (w *World) Digest() uint64 {
	var sum uint64
	for _, name := range w.tableNames() {
		t := w.tables[name]
		seed := digestString(name)
		for r, n := 0, t.Len(); r < n; r++ {
			sum += rowDigest(t, seed, r)
		}
	}
	if w.dir.ghosts > 0 {
		for i := range w.dir.recs {
			if rec := &w.dir.recs[i]; rec.ghost {
				r, _ := rec.tab.RowIndex(rec.id)
				sum -= rowDigest(rec.tab, digestString(rec.tab.Name()), r)
			}
		}
	}
	return sum
}

// rowDigest is the hash of table t's row r; seed is the table name's.
func rowDigest(t *entity.Table, seed uint64, r int) uint64 {
	h := digestRound(seed, uint64(t.IDAt(r)))
	for c, n := 0, t.Schema().Len(); c < n; c++ {
		h = digestRound(h, cellWord(t.ValueAt(c, r)))
	}
	return mix64(h)
}

// digestRound folds one word into a row's running hash: xxHash64's
// round, a bijection in either argument with the other held, so a
// single changed word always changes the row's hash.
func digestRound(h, word uint64) uint64 {
	h += word * 0xc2b2ae3d27d4eb4f
	return bits.RotateLeft64(h, 31) * 0x9e3779b185ebca87
}

// cellWord is a cell's one word: its payload's bits (a string's FNV-1a)
// xor a salt per kind, so an int and a float of the same bits differ.
func cellWord(v entity.Value) uint64 {
	x := v.Bits()
	if s, ok := v.AsStr(); ok {
		x = digestString(s)
	}
	return x ^ uint64(v.Kind())*0x165667b19e3779f9
}

// digestString is the FNV-1a hash of s.
func digestString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
