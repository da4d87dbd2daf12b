package world

import (
	"gamedb/internal/entity"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// Wire serialization for the cross-shard barrier messages. The formats
// live here because RemoteEffectBatch's OCC metadata (invocations and
// their read-sets) is unexported: the wire layer moves bytes, this file
// owns what the bytes mean.

// AppendEffect encodes one effect onto e as (kind, src, seq, target,
// column, value, name, pos). Col travels in the slot its kind names: the
// name slot for a Spawn's archetype and a Post's event, the column slot
// otherwise; the other slot is empty.
func AppendEffect(e *wire.Enc, ef *Effect) {
	col, name := ef.Col, ""
	if ef.colIsName() {
		col, name = "", ef.Col
	}
	e.U8(byte(ef.Kind))
	e.Uvarint(uint64(ef.Src))
	e.Varint(int64(ef.Seq))
	e.Uvarint(uint64(ef.Target))
	e.Str(col)
	e.Value(ef.Val)
	e.Str(name)
	e.F64(ef.Pos.X)
	e.F64(ef.Pos.Y)
}

// DecodeEffect decodes one effect from d into ef, folding the slot its
// kind names into Col.
func DecodeEffect(d *wire.Dec, ef *Effect) {
	ef.Kind = EffectKind(d.U8())
	ef.Src = entity.ID(d.Uvarint())
	ef.Seq = int32(d.Varint())
	ef.Target = entity.ID(d.Uvarint())
	col := d.Str()
	ef.Val = d.Value()
	name := d.Str()
	ef.Col = col
	if ef.colIsName() {
		ef.Col = name
	}
	ef.Pos = spatial.Vec2{X: d.F64(), Y: d.F64()}
}

// colIsName reports whether ef's Col holds a name (a Spawn's archetype or a
// Post's event) rather than a column.
func (ef *Effect) colIsName() bool { return ef.Kind == EffectSpawn || ef.Kind == EffectPost }

// AppendRemoteBatch encodes one outbound RemoteEffectBatch: the remote
// records in order, then the OCC invocation metadata (empty under
// last-write). An empty batch encodes as two zero counts.
func AppendRemoteBatch(e *wire.Enc, b *RemoteEffectBatch) {
	if b == nil {
		e.Uvarint(0)
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(b.Recs)))
	for i := range b.Recs {
		r := &b.Recs[i]
		e.Varint(r.Gen)
		AppendEffect(e, &r.E)
	}
	e.Uvarint(uint64(len(b.invocs)))
	for i := range b.invocs {
		inv := &b.invocs[i]
		// key.Shard is restamped by QueueForeign from the frame's sender,
		// so it does not ride the wire.
		e.Uvarint(uint64(inv.key.Src))
		e.Varint(inv.key.Gen)
		e.Varint(int64(inv.retries))
		reads := b.reads[inv.readLo:inv.readHi]
		e.Uvarint(uint64(len(reads)))
		for _, rc := range reads {
			e.Uvarint(uint64(rc.id))
			e.Str(rc.col)
		}
	}
}

// DecodeRemoteBatch decodes a RemoteEffectBatch from d into b, reusing
// b's slices (the read-sets' arena included), so b holds one decode at
// a time. Check d.Err() after: on error b is partially filled and must
// not be queued.
func DecodeRemoteBatch(d *wire.Dec, b *RemoteEffectBatch) {
	nr := d.Uvarint()
	if nr > uint64(d.Remaining()) {
		// Every record costs multiple bytes; a count past the payload is
		// corruption — fail before allocating.
		d.Fail("count")
		return
	}
	b.Recs = b.Recs[:0]
	for i := uint64(0); i < nr && d.Err() == nil; i++ {
		var r RemoteEffect
		r.Gen = d.Varint()
		DecodeEffect(d, &r.E)
		b.Recs = append(b.Recs, r)
	}
	ni := d.Uvarint()
	if ni > uint64(d.Remaining()) {
		d.Fail("count")
		return
	}
	b.invocs, b.reads = b.invocs[:0], b.reads[:0]
	for i := uint64(0); i < ni && d.Err() == nil; i++ {
		var inv foreignInvoc
		inv.key.Src = entity.ID(d.Uvarint())
		inv.key.Gen = d.Varint()
		inv.retries = int(d.Varint())
		nread := d.Uvarint()
		if nread > uint64(d.Remaining()) {
			d.Fail("count")
			return
		}
		inv.readLo = len(b.reads)
		for j := uint64(0); j < nread && d.Err() == nil; j++ {
			b.reads = append(b.reads, readCell{id: entity.ID(d.Uvarint()), col: d.Str()})
		}
		inv.readHi = len(b.reads)
		b.invocs = append(b.invocs, inv)
	}
}

// AppendVerdicts encodes owner-side validation verdicts.
func AppendVerdicts(e *wire.Enc, vs []ForeignInvalidation) {
	e.Uvarint(uint64(len(vs)))
	for i := range vs {
		v := &vs[i]
		e.Varint(int64(v.Key.Shard))
		e.Uvarint(uint64(v.Key.Src))
		e.Varint(v.Key.Gen)
		e.Varint(int64(v.Retries))
	}
}

// DecodeVerdicts decodes verdicts from d, appending onto dst.
func DecodeVerdicts(d *wire.Dec, dst []ForeignInvalidation) []ForeignInvalidation {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail("count")
		return dst
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var v ForeignInvalidation
		v.Key.Shard = int(d.Varint())
		v.Key.Src = entity.ID(d.Uvarint())
		v.Key.Gen = d.Varint()
		v.Retries = int(d.Varint())
		dst = append(dst, v)
	}
	return dst
}

// BatchLens reports a batch's record and invocation counts (nil-safe),
// which the barrier uses to size frames and gate the verdict round.
func BatchLens(b *RemoteEffectBatch) (recs, invocs int) {
	if b == nil {
		return 0, 0
	}
	return len(b.Recs), len(b.invocs)
}
