package replica

import (
	"testing"

	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// TestWireMsgRoundTrip pins every client-protocol message through the
// codec: encode, decode, compare fields.
func TestWireMsgRoundTrip(t *testing.T) {
	var e wire.Enc

	AppendUpdateMsg(&e, 300, 7, -2.5)
	d := wire.NewDec(e.Bytes(), nil)
	if got := DecodeUpdateMsg(d); got != (UpdateMsg{ID: 300, Field: 7, Val: -2.5}) {
		t.Fatalf("update round trip: %+v", got)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("update left err=%v remaining=%d", d.Err(), d.Remaining())
	}

	e.Reset()
	AppendRemoveMsg(&e, 1<<40)
	d.Reset(e.Bytes())
	if got := DecodeRemoveMsg(d); got != 1<<40 || d.Err() != nil {
		t.Fatalf("remove round trip: id=%d err=%v", got, d.Err())
	}

	e.Reset()
	vals := []float64{1, -2, 3.75, 0}
	AppendSnapshotMsg(&e, 42, vals)
	d.Reset(e.Bytes())
	id, got := DecodeSnapshotMsg(d, nil)
	if id != 42 || len(got) != len(vals) || d.Err() != nil {
		t.Fatalf("snapshot round trip: id=%d vals=%v err=%v", id, got, d.Err())
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("snapshot val %d: %v != %v", i, got[i], vals[i])
		}
	}
}

// TestWireMsgCorrupt: a wrong tag or a truncated payload must surface a
// decoder error, never a panic or a silently wrong value.
func TestWireMsgCorrupt(t *testing.T) {
	var e wire.Enc
	AppendUpdateMsg(&e, 5, 1, 9)

	// Wrong tag for each decoder.
	d := wire.NewDec(e.Bytes(), nil)
	DecodeRemoveMsg(d)
	if d.Err() == nil {
		t.Fatal("remove decoder accepted an update tag")
	}
	d.Reset(e.Bytes())
	DecodeSnapshotMsg(d, nil)
	if d.Err() == nil {
		t.Fatal("snapshot decoder accepted an update tag")
	}

	// Truncation at every prefix length must error, not panic.
	full := append([]byte(nil), e.Bytes()...)
	for cut := 0; cut < len(full); cut++ {
		d.Reset(full[:cut])
		DecodeUpdateMsg(d)
		if d.Err() == nil {
			t.Fatalf("truncated update at %d/%d decoded cleanly", cut, len(full))
		}
	}

	// Snapshot claiming more fields than bytes remain.
	e.Reset()
	e.U8(msgTagSnapshot)
	e.Uvarint(9)
	e.Uvarint(1 << 20) // field count far past the payload
	d.Reset(e.Bytes())
	DecodeSnapshotMsg(d, nil)
	if d.Err() == nil {
		t.Fatal("oversized snapshot count decoded cleanly")
	}
}

// TestHubWireSizing: the hub prices every message by its encoded length
// — a full window of snapshots at tick 1 costs exactly what encoding them
// costs — and the totals repeat run to run.
func TestHubWireSizing(t *testing.T) {
	run := func() (int64, int64, int64) {
		h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32})
		for i := 0; i < 8; i++ {
			h.AddClient(i, spatial.Vec2{X: float64(i * 37 % 200), Y: float64(i * 53 % 200)}, 48, 0)
		}
		for tick := int64(1); tick <= 8; tick++ {
			h.BeginTick(tick)
			for id := ID(1); id <= 20; id++ {
				x := float64((int64(id)*17 + tick*31) % 200)
				y := float64((int64(id)*23 + tick*7) % 200)
				h.UpdateEntity(id, spatial.Vec2{X: x, Y: y}, []float64{float64(tick), x, y})
			}
			h.FlushTick()
		}
		return h.MsgsTotal.Load(), h.BytesTotal.Load(), h.SnapshotTotal.Load()
	}
	wm, wb, ws := run()
	if wm == 0 || wb == 0 || ws == 0 {
		t.Fatalf("scenario shipped %d msgs, %d bytes, %d snapshots", wm, wb, ws)
	}
	// Wire sizing must be reproducible run to run.
	if m2, b2, s2 := run(); m2 != wm || b2 != wb || s2 != ws {
		t.Fatalf("wire-sized totals not reproducible: (%d, %d, %d) vs (%d, %d, %d)", wm, wb, ws, m2, b2, s2)
	}

	// One client over one populated cell: its first flush is the cell's
	// snapshots, each priced at its encoded size.
	h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32})
	c := h.AddClient(1, spatial.Vec2{X: 16, Y: 16}, 8, 0)
	h.BeginTick(1)
	var want int64
	for id := ID(1); id <= 3; id++ {
		vals := []float64{float64(id), 16, 0}
		h.SpawnEntity(id<<20, spatial.Vec2{X: 16, Y: 16}, vals)
		want += snapshotSize(id<<20, vals)
	}
	h.FlushTick()
	if c.Snapshots != 3 || c.Bytes != want {
		t.Fatalf("3 snapshots priced %d bytes over %d snapshots, encoding them takes %d", c.Bytes, c.Snapshots, want)
	}
}

// TestHubWireSizingCoverDiff pins the flush-side sizing path: a window
// move prices its cover-diff snapshots and removals by encoding, so a
// bigger entity id (longer varint) costs more bytes than a small one.
func TestHubWireSizingCoverDiff(t *testing.T) {
	bytesAfterMove := func(id ID) int64 {
		h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32})
		c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 40, 0)
		h.BeginTick(1)
		h.SpawnEntity(id, spatial.Vec2{X: 400, Y: 100}, []float64{1, 1, 1})
		h.FlushTick()
		h.BeginTick(2)
		h.MoveClient(c, spatial.Vec2{X: 400, Y: 100})
		h.FlushTick()
		return c.Bytes
	}
	small, big := bytesAfterMove(3), bytesAfterMove(1<<40)
	if small == 0 {
		t.Fatal("cover-diff snapshot shipped nothing")
	}
	if big <= small {
		t.Fatalf("varint id did not grow the wire-sized snapshot: id=3 → %d bytes, id=2^40 → %d", small, big)
	}
}
