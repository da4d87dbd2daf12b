package entity

// HashIndex is a secondary equality index from column value to the set of
// entity IDs holding that value, keyed on Value.Key so lookups follow
// Value.Equal. It is maintained by the owning Table.
type HashIndex struct {
	m map[ValueKey][]ID
}

// NewHashIndex returns an empty hash index.
func NewHashIndex() *HashIndex { return &HashIndex{m: make(map[ValueKey][]ID)} }

func (ix *HashIndex) insert(v Value, id ID) {
	k := v.Key()
	ix.m[k] = append(ix.m[k], id)
}

func (ix *HashIndex) remove(v Value, id ID) {
	k := v.Key()
	ids := ix.m[k]
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.m, k)
	} else {
		ix.m[k] = ids
	}
}

// Lookup returns a copy of the IDs whose indexed column equals v.
func (ix *HashIndex) Lookup(v Value) []ID {
	ids := ix.m[v.Key()]
	if len(ids) == 0 {
		return nil
	}
	out := make([]ID, len(ids))
	copy(out, ids)
	return out
}

// Len returns the number of distinct indexed values.
func (ix *HashIndex) Len() int { return len(ix.m) }
