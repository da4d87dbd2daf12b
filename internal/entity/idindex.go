package entity

// IDIndex maps entity ids to non-negative int32 slots (a table row, a
// directory record). Ids below denseIDs — every id a world or a shard
// coordinator assigns, since both count up from 1 — resolve with two
// array reads: a page table indexed by id>>idPageBits, then the page.
// A page holds slot+1 per id, so 0 means absent and id 0 works; it is
// allocated on the first Put into it and kept, so a despawn and respawn
// on a touched page allocates nothing. Ids at or above denseIDs (the
// shard script-id stream at 2^32, provisional ids at 2^62, arbitrary
// caller ids) live in a Go map instead, so a far id costs a map entry,
// not a page table stretched to reach it.
//
// The zero IDIndex is empty and ready to use. Nothing iterates it, so
// no output depends on its layout.
type IDIndex struct {
	pages []*[idPageSize]int32
	far   map[ID]int32
	n     int
}

const (
	idPageBits = 10
	idPageSize = 1 << idPageBits // 4 KiB of int32 per page
	// denseIDs bounds the paged range: at most denseIDs>>idPageBits
	// pages, a 32 KiB page table.
	denseIDs = 1 << 22
)

// Get returns id's slot; ok is false (and the slot -1) when id has none.
func (x *IDIndex) Get(id ID) (slot int32, ok bool) {
	if id < denseIDs {
		if p := id >> idPageBits; p < ID(len(x.pages)) {
			if pg := x.pages[p]; pg != nil {
				v := pg[id&(idPageSize-1)]
				return v - 1, v != 0
			}
		}
		return -1, false
	}
	if v, ok := x.far[id]; ok {
		return v, true
	}
	return -1, false
}

// Put sets id's slot, adding id when it has none. slot must be
// non-negative.
func (x *IDIndex) Put(id ID, slot int32) {
	if id >= denseIDs {
		if x.far == nil {
			x.far = make(map[ID]int32)
		}
		if _, had := x.far[id]; !had {
			x.n++
		}
		x.far[id] = slot
		return
	}
	p := int(id >> idPageBits)
	if p >= len(x.pages) {
		x.pages = append(x.pages, make([]*[idPageSize]int32, p+1-len(x.pages))...)
	}
	pg := x.pages[p]
	if pg == nil {
		pg = new([idPageSize]int32)
		x.pages[p] = pg
	}
	e := &pg[id&(idPageSize-1)]
	if *e == 0 {
		x.n++
	}
	*e = slot + 1
}

// Delete drops id's slot; it does nothing when id has none.
func (x *IDIndex) Delete(id ID) {
	if id >= denseIDs {
		if _, had := x.far[id]; had {
			delete(x.far, id)
			x.n--
		}
		return
	}
	if p := id >> idPageBits; p < ID(len(x.pages)) {
		if pg := x.pages[p]; pg != nil && pg[id&(idPageSize-1)] != 0 {
			pg[id&(idPageSize-1)] = 0
			x.n--
		}
	}
}

// Len returns the number of ids held.
func (x *IDIndex) Len() int { return x.n }
