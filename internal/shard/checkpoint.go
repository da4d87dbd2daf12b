package shard

import (
	"fmt"
	"slices"

	"gamedb/internal/entity"
	"gamedb/internal/wire"
)

// Snapshot captures the grid between two barriers as one blob, each peer
// serializing its own shard concurrently: its world snapshot plus the
// barrier state no world holds — the tick, the coordinator id stream,
// the partition boundaries and the ghost-ship bookkeeping of every
// mirror. Restoring it resumes the exact run the snapshot interrupted.
func (c *Cluster) Snapshot() ([]byte, error) {
	if err := c.each(opSnapshot); err != nil {
		return nil, err
	}
	var e wire.Enc
	e.Uvarint(uint64(len(c.blobs)))
	for _, b := range c.blobs {
		e.Str(string(b))
	}
	return e.Bytes(), nil
}

// Restore replaces every peer's state with its part of a Snapshot blob
// taken from a grid of the same shape and config. The barrier sequence
// that stamps frames is not part of the state: it keeps counting, so no
// frame of the restored run is mistaken for one sent before. A blob of
// the wrong shard count is refused untouched; a peer that fails to
// restore fails the cluster, since its shard no longer matches the rest.
func (c *Cluster) Restore(snap []byte) error {
	d := wire.NewDec(snap, nil)
	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(c.peers)) {
		return fmt.Errorf("shard: snapshot holds %d shards, the cluster %d", n, len(c.peers))
	}
	for i := range c.blobs {
		c.blobs[i] = []byte(d.Str())
	}
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail("trailing bytes")
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("shard: corrupt snapshot: %w", err)
	}
	return c.each(opRestore)
}

// snapshot encodes this peer's part of a cluster snapshot.
func (p *Peer) snapshot() ([]byte, error) {
	ws, err := p.w.Snapshot()
	if err != nil {
		return nil, err
	}
	var e wire.Enc
	e.Varint(p.tick)
	e.Uvarint(uint64(p.nextID))
	for _, bounds := range [][]float64{p.part.xs, p.part.ys} {
		e.Uvarint(uint64(len(bounds)))
		for _, v := range bounds {
			e.F64(v)
		}
	}
	ids := make([]entity.ID, 0, len(p.recs))
	for id := range p.recs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.Uvarint(uint64(id))
		for _, f := range p.recs[id] {
			e.Bool(f.present)
			e.F64(f.sent)
			e.Value(f.sentVal)
			e.Varint(f.sentTick)
		}
	}
	e.Str(string(ws))
	return e.Bytes(), nil
}

// restore decodes one peer part of a cluster snapshot and installs it.
// Everything decodes before anything changes, so a corrupt part leaves
// the peer as it was.
func (p *Peer) restore(b []byte) error {
	d := wire.NewDec(b, nil)
	tick := d.Varint()
	nextID := entity.ID(d.Uvarint())
	xs, ys := slices.Clone(p.part.xs), slices.Clone(p.part.ys)
	for _, bounds := range [][]float64{xs, ys} {
		if d.Uvarint() != uint64(len(bounds)) {
			d.Fail("partition shape")
		}
		for i := range bounds {
			bounds[i] = d.F64()
		}
	}
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail("ghost record count")
		n = 0
	}
	recs := make(map[entity.ID]ghostRec, n)
	for ; n > 0 && d.Err() == nil; n-- {
		id := entity.ID(d.Uvarint())
		rec := make(ghostRec, len(p.specs))
		for fi := range rec {
			rec[fi] = ghostField{present: d.Bool(), sent: d.F64(), sentVal: d.Value(), sentTick: d.Varint()}
		}
		recs[id] = rec
	}
	ws := d.Str()
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail("trailing bytes")
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("shard %d: corrupt snapshot: %w", p.self, err)
	}
	if err := p.w.Restore([]byte(ws)); err != nil {
		return fmt.Errorf("shard %d: %w", p.self, err)
	}
	p.tick, p.nextID = tick, nextID
	p.part.xs, p.part.ys = xs, ys
	p.band = newGhostBand(p.cfg.GhostBand, p.part)
	p.recs = recs
	clear(p.specInfos)
	return nil
}
