package shard

import (
	"gamedb/internal/entity"
	"gamedb/internal/wire"
)

// Frame kinds of the tick-barrier wire protocol, one per barrier round.
// Every round sends exactly one frame per (sender, receiver) pair per
// barrier — empty payloads included — so each peer always knows when a
// round is complete without timeouts or extra control traffic.
const (
	// frameEffects opens the barrier: the sender's total outbound record
	// count (every peer needs the global count to gate the verdict
	// round) followed by the RemoteEffectBatch destined for the
	// receiver.
	frameEffects byte = 1
	// frameVerdicts carries the sender's owner-side OCC validation
	// verdicts; the round runs only when the global forwarded count is
	// nonzero.
	frameVerdicts byte = 2
	// frameCounts carries the sender's owned-entity count on rebalance
	// ticks; every peer then runs the identical pure Rebalance step.
	frameCounts byte = 3
	// frameBarrier is the handoff/ghost round: rows migrating to the
	// receiver plus full-row ghost candidates for the receiver's border
	// band (the receiver evaluates ship policy itself against its own
	// last-shipped bookkeeping).
	frameBarrier byte = 4
	// frameRows is the hash gather: every peer other than 0 ships its
	// world's Digest to peer 0 as 8 little-endian bytes, and peer 0 adds
	// them, the sum Runtime.Hash takes in-process.
	frameRows byte = 5
)

// stagedMig is one row leaving this peer, staged during the barrier
// walk so the encode+send can run on the sender goroutine while the
// peer despawns the source rows.
type stagedMig struct {
	id           entity.ID
	table        string
	behavior     string
	rowLo, rowHi int // row copy in the peer's value arena
}

// stagedCand is one (entity, destination) ghost-candidate: the owner
// the receiver must route writes to, plus the full row so the receiver
// can snapshot a new mirror or evaluate field ships without a second
// round trip.
type stagedCand struct {
	id           entity.ID
	owner        int
	table        string
	rowLo, rowHi int
}

// appendBarrierPayload encodes one destination's barrier frame:
// migrations then candidates, rows resolved from the staging arena.
func appendBarrierPayload(e *wire.Enc, migs []stagedMig, cands []stagedCand, arena []entity.Value) {
	e.Uvarint(uint64(len(migs)))
	for i := range migs {
		m := &migs[i]
		e.Uvarint(uint64(m.id))
		e.Str(m.table)
		e.Str(m.behavior)
		e.Row(arena[m.rowLo:m.rowHi])
	}
	e.Uvarint(uint64(len(cands)))
	for i := range cands {
		c := &cands[i]
		e.Uvarint(uint64(c.id))
		e.Varint(int64(c.owner))
		e.Str(c.table)
		e.Row(arena[c.rowLo:c.rowHi])
	}
}

// inMig is one decoded inbound migration; inCand one decoded inbound
// ghost candidate. Rows are slices into per-frame decode storage valid
// until the next barrier.
type inMig struct {
	id       entity.ID
	src      int
	table    string
	behavior string
	row      []entity.Value
}

type inCand struct {
	id    entity.ID
	owner int
	table string
	row   []entity.Value
}

// decodeBarrierPayload appends the frame's migrations and candidates
// from src onto the peer's inbound lists. Row storage comes from rows,
// a reusable backing slice: each row decodes into the reusable scratch,
// is appended onto rows and sliced out, so steady-state decode reuses
// one growing allocation per barrier instead of one per row.
func decodeBarrierPayload(d *wire.Dec, src int, migs []inMig, cands []inCand, rows, scratch []entity.Value) ([]inMig, []inCand, []entity.Value, []entity.Value) {
	nm := d.Uvarint()
	if nm > uint64(d.Remaining()) {
		d.Fail("migration count")
		return migs, cands, rows, scratch
	}
	for i := uint64(0); i < nm && d.Err() == nil; i++ {
		var m inMig
		m.src = src
		m.id = entity.ID(d.Uvarint())
		m.table = d.Str()
		m.behavior = d.Str()
		scratch = d.Row(scratch)
		lo := len(rows)
		rows = append(rows, scratch...)
		m.row = rows[lo:len(rows):len(rows)]
		migs = append(migs, m)
	}
	nc := d.Uvarint()
	if nc > uint64(d.Remaining()) {
		d.Fail("candidate count")
		return migs, cands, rows, scratch
	}
	for i := uint64(0); i < nc && d.Err() == nil; i++ {
		var c inCand
		c.id = entity.ID(d.Uvarint())
		c.owner = int(d.Varint())
		c.table = d.Str()
		scratch = d.Row(scratch)
		lo := len(rows)
		rows = append(rows, scratch...)
		c.row = rows[lo:len(rows):len(rows)]
		cands = append(cands, c)
	}
	return migs, cands, rows, scratch
}
