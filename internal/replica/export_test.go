package replica

import "gamedb/internal/wire"

// CurrentTier returns the client's current service level.
func (c *Conn) CurrentTier() Tier { return c.tier }

// QueuedBytes returns the client's current backlog.
func (c *Conn) QueuedBytes() int { return c.qBytes }

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

// DecodeRemoveMsg decodes a removal message and returns the entity id.
func DecodeRemoveMsg(d *wire.Dec) ID {
	if d.U8() != msgTagRemove {
		d.Fail("remove tag")
		return 0
	}
	return ID(d.Uvarint())
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
