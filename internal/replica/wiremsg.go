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

// AppendRemoveMsg encodes one entity-removal message: tag, entity id.
func AppendRemoveMsg(e *wire.Enc, id ID) {
	e.U8(msgTagRemove)
	e.Uvarint(uint64(id))
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
