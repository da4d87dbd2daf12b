package replica

import (
	"gamedb/internal/wire"
)

// Client-protocol message tags. The hub's fan-out queues model these
// messages and price each one by encoding it with the internal/wire
// codec — the same codec the shard tick barrier ships frames with.
const (
	msgTagUpdate   byte = 1
	msgTagRemove   byte = 2
	msgTagSnapshot byte = 3
)

// AppendUpdateMsg encodes one field-update delta: tag, entity id,
// field index, raw float payload.
func AppendUpdateMsg(e *wire.Enc, id ID, fi int32, val float64) {
	e.U8(msgTagUpdate)
	e.Uvarint(uint64(id))
	e.Uvarint(uint64(fi))
	e.F64(val)
}

// UpdateMsg is one decoded field-update delta.
type UpdateMsg struct {
	ID    ID
	Field int32
	Val   float64
}

// DecodeUpdateMsg decodes an update message (tag included).
func DecodeUpdateMsg(d *wire.Dec) UpdateMsg {
	if d.U8() != msgTagUpdate {
		d.Fail("update tag")
		return UpdateMsg{}
	}
	return UpdateMsg{ID: ID(d.Uvarint()), Field: int32(d.Uvarint()), Val: d.F64()}
}

// AppendRemoveMsg encodes one entity-removal message: tag, entity id.
func AppendRemoveMsg(e *wire.Enc, id ID) {
	e.U8(msgTagRemove)
	e.Uvarint(uint64(id))
}

// DecodeRemoveMsg decodes a removal message and returns the entity id.
func DecodeRemoveMsg(d *wire.Dec) ID {
	if d.U8() != msgTagRemove {
		d.Fail("remove tag")
		return 0
	}
	return ID(d.Uvarint())
}

// AppendSnapshotMsg encodes one full-entity snapshot: tag, entity id,
// field count, raw float payloads in spec order.
func AppendSnapshotMsg(e *wire.Enc, id ID, vals []float64) {
	e.U8(msgTagSnapshot)
	e.Uvarint(uint64(id))
	e.Uvarint(uint64(len(vals)))
	for _, v := range vals {
		e.F64(v)
	}
}

// DecodeSnapshotMsg decodes a snapshot message, appending values onto
// dst.
func DecodeSnapshotMsg(d *wire.Dec, dst []float64) (ID, []float64) {
	if d.U8() != msgTagSnapshot {
		d.Fail("snapshot tag")
		return 0, dst
	}
	id := ID(d.Uvarint())
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail("snapshot field count")
		return id, dst
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		dst = append(dst, d.F64())
	}
	return id, dst
}
