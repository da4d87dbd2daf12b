package replica

import (
	"math"
	"slices"
	"testing"

	"gamedb/internal/metrics"
	"gamedb/internal/sched"
	"gamedb/internal/spatial"
)

// hubSpecs: one of each class, epsilon/period values chosen so tests
// can steer each gate independently.
func hubSpecs() []FieldSpec {
	return []FieldSpec{
		{Name: "hp", Class: Exact},
		{Name: "x", Class: Coarse, Epsilon: 1.0, MaxAge: 5},
		{Name: "anim", Class: Cosmetic, Period: 2},
	}
}

func newTestHub(budget int) *Hub {
	return NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: budget})
}

func flush(h *Hub, tick int64, fn func()) TickReport {
	h.BeginTick(tick)
	if fn != nil {
		fn()
	}
	return h.FlushTick()
}

// TestHubSnapshotOnEnter: a client whose window covers a cell snapshots
// its population on the first flush; a client elsewhere receives nothing.
func TestHubSnapshotOnEnter(t *testing.T) {
	h := newTestHub(0)
	near := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	far := h.AddClient(2, spatial.Vec2{X: 5000, Y: 5000}, 50, 0)
	flush(h, 1, func() {
		h.SpawnEntity(10, spatial.Vec2{X: 110, Y: 100}, []float64{100, 110, 0})
	})
	if near.Snapshots != 1 {
		t.Fatalf("near client snapshots = %d, want 1", near.Snapshots)
	}
	if far.Snapshots != 0 || far.Bytes != 0 {
		t.Fatalf("far client received traffic: snaps=%d bytes=%d", far.Snapshots, far.Bytes)
	}
}

// TestHubDeltaGating: unchanged fields cost nothing; an Exact change is
// one message; a within-epsilon Coarse change ships nothing now but
// becomes due at the staleness deadline.
func TestHubDeltaGating(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() { h.SpawnEntity(10, pos, []float64{100, 110, 0}) })
	base := c.Msgs

	// No-op update: nothing ships.
	flush(h, 2, func() { h.UpdateEntity(10, pos, []float64{100, 110, 0}) })
	if c.Msgs != base {
		t.Fatalf("no-op update shipped %d messages", c.Msgs-base)
	}

	// Exact change ships exactly one field update (odd tick keeps the
	// Period-2 Cosmetic gate closed even if anim were dirty).
	flush(h, 3, func() { h.UpdateEntity(10, pos, []float64{99, 110, 0}) })
	if got := c.Msgs - base; got != 1 {
		t.Fatalf("Exact change shipped %d messages, want 1", got)
	}
	base = c.Msgs

	// Coarse within epsilon: declined now...
	flush(h, 4, func() { h.UpdateEntity(10, pos, []float64{99, 110.5, 0}) })
	if c.Msgs != base {
		t.Fatalf("within-epsilon Coarse shipped %d messages", c.Msgs-base)
	}
	// ...but the due index surfaces it at sentTick + MaxAge with no
	// further writes (sentTick=1 from the spawn baseline, MaxAge=5 → 6).
	flush(h, 5, nil)
	if c.Msgs != base {
		t.Fatal("Coarse shipped before its staleness deadline")
	}
	flush(h, 6, nil)
	if got := c.Msgs - base; got != 1 {
		t.Fatalf("staleness deadline shipped %d messages, want 1", got)
	}
}

// TestHubTierDegradationAndRecovery: a throttled client's backlog
// crosses the degrade watermark and steps down; once the backlog
// drains, it steps back up. Exact traffic survives at every tier,
// Cosmetic does not.
func TestHubTierDegradationAndRecovery(t *testing.T) {
	h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 1000, DegradeAt: 60, UpgradeAt: 20, MaxQueue: 100000})
	slow := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 10) // 10 bytes/tick drain
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() {
		for id := ID(10); id < 20; id++ {
			h.SpawnEntity(id, pos, []float64{1, 1, 1})
		}
	})
	// Flood Exact changes until the backlog forces degradation.
	tick := int64(2)
	for ; tick < 40 && slow.CurrentTier() == TierExact; tick++ {
		v := float64(tick)
		flush(h, tick, func() {
			for id := ID(10); id < 20; id++ {
				h.UpdateEntity(id, pos, []float64{v, 1, 1})
			}
		})
	}
	if slow.CurrentTier() == TierExact {
		t.Fatal("backlogged client never degraded")
	}
	if h.DegradeTotal.Load() == 0 {
		t.Fatal("DegradeTotal not counted")
	}
	// Quiet ticks: the queue drains and the tier recovers.
	for i := 0; i < 2000 && slow.CurrentTier() != TierExact; i++ {
		flush(h, tick, nil)
		tick++
	}
	if slow.CurrentTier() != TierExact {
		t.Fatalf("client never recovered: tier=%v backlog=%d", slow.CurrentTier(), slow.QueuedBytes())
	}
	if h.UpgradeTotal.Load() == 0 {
		t.Fatal("UpgradeTotal not counted")
	}
}

// TestHubTierFiltersCosmetic: at TierCoarse a client stops receiving
// Cosmetic updates while a healthy client still does; Exact updates
// reach both.
func TestHubTierFiltersCosmetic(t *testing.T) {
	h := newTestHub(1000)
	fast := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	slow := h.AddClient(2, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() { h.SpawnEntity(10, pos, []float64{1, 1, 1}) })
	fm, sm := fast.Msgs, slow.Msgs
	// Tick 4: even tick opens the Period-2 Cosmetic gate; anim changed.
	// The tier is re-pinned inside each flush because a drained queue
	// upgrades it back at flush end (recovery dynamics tested above).
	flush(h, 4, func() {
		slow.tier = TierCoarse
		h.UpdateEntity(10, pos, []float64{1, 1, 9})
	})
	if got := fast.Msgs - fm; got != 1 {
		t.Fatalf("healthy client got %d cosmetic messages, want 1", got)
	}
	if slow.Msgs != sm {
		t.Fatalf("degraded client got %d cosmetic messages, want 0", slow.Msgs-sm)
	}
	// Exact still reaches both.
	flush(h, 5, func() {
		slow.tier = TierCoarse
		h.UpdateEntity(10, pos, []float64{2, 1, 9})
	})
	if fast.Msgs-fm != 2 || slow.Msgs-sm != 1 {
		t.Fatalf("Exact update filtered: fast +%d slow +%d", fast.Msgs-fm, slow.Msgs-sm)
	}
}

// TestHubOverflowDrops: a backlog past MaxQueue sheds its oldest
// messages and counts them.
func TestHubOverflowDrops(t *testing.T) {
	h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 1000, MaxQueue: 50})
	stuck := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 1) // ~no drain
	pos := spatial.Vec2{X: 110, Y: 100}
	flush(h, 1, func() {
		for id := ID(10); id < 30; id++ {
			h.SpawnEntity(id, pos, []float64{1, 1, 1})
		}
	})
	if stuck.Drops == 0 {
		t.Fatal("overflowing queue dropped nothing")
	}
	if stuck.QueuedBytes() > 50 {
		t.Fatalf("backlog %d exceeds MaxQueue 50", stuck.QueuedBytes())
	}
}

// TestDrainedBacklogKeepsArrays: a throttled client's backlog passes
// 1 024 messages, drains to empty on quiet ticks and fills again. The
// drain keeps both arrays, and the refill writes into the same ones
// rather than regrowing them from nothing. It compares backing arrays,
// not allocation counts, so it holds under -race too.
func TestDrainedBacklogKeepsArrays(t *testing.T) {
	h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, ByteBudget: 1500, MaxQueue: 1 << 30})
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 1000)
	const ents = 2000
	pos := spatial.Vec2{X: 110, Y: 100}
	hp := func(v float64, n ID) func() {
		return func() {
			for id := ID(1); id <= n; id++ {
				h.UpdateEntity(id, pos, []float64{v, 1, 1})
			}
		}
	}
	tick := int64(1)
	for ; tick <= 3; tick++ {
		flush(h, tick, hp(float64(tick), ents))
	}
	if queued := len(c.sums) - 1 - c.head; queued <= 1024 {
		t.Fatalf("flood left %d messages queued, want over 1 024", queued)
	}
	sums, spans := &c.sums[0], &c.spans[0]
	capSums, capSpans := cap(c.sums), cap(c.spans)
	for ; c.qBytes > 0; tick++ {
		if tick > 1000 {
			t.Fatalf("backlog still holds %d bytes at tick %d", c.qBytes, tick)
		}
		flush(h, tick, nil)
	}
	if len(c.sums) != 0 || cap(c.sums) != capSums || cap(c.spans) != capSpans {
		t.Fatalf("drained backlog: %d sums of capacity %d (was %d), spans capacity %d (was %d)",
			len(c.sums), cap(c.sums), capSums, cap(c.spans), capSpans)
	}
	flush(h, tick, hp(float64(tick), ents/2))
	if len(c.sums) == 0 || len(c.spans) == 0 {
		t.Fatal("the refill queued nothing")
	}
	if &c.sums[0] != sums || &c.spans[0] != spans {
		t.Fatal("the refill regrew the backlog's arrays instead of reusing them")
	}
}

// TestHubClientMoveCoverDiff: moving a client's focus snapshots the
// newly covered population and removes the departed one — and only the
// difference, not the whole window.
func TestHubClientMoveCoverDiff(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 40, 0)
	flush(h, 1, func() {
		h.SpawnEntity(10, spatial.Vec2{X: 100, Y: 100}, []float64{1, 1, 1}) // old window
		h.SpawnEntity(11, spatial.Vec2{X: 400, Y: 100}, []float64{1, 1, 1}) // new window
	})
	if c.Snapshots != 1 {
		t.Fatalf("initial snapshots = %d, want 1", c.Snapshots)
	}
	flush(h, 2, func() { h.MoveClient(c, spatial.Vec2{X: 400, Y: 100}) })
	if c.Snapshots != 2 {
		t.Fatalf("post-move snapshots = %d, want 2 (entity 11 entered)", c.Snapshots)
	}
	// The old entity's subsequent updates no longer reach the client.
	base := c.Msgs
	flush(h, 3, func() {
		h.UpdateEntity(10, spatial.Vec2{X: 100, Y: 100}, []float64{2, 1, 1})
	})
	if c.Msgs != base {
		t.Fatal("client still receives updates from the departed window")
	}
}

// TestHubEntityCellTransition: an entity crossing into a client's
// window snapshots; one crossing out removes; movement between two
// covered cells is just deltas (no re-snapshot).
func TestHubEntityCellTransition(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 40, 0)
	farPos := spatial.Vec2{X: 900, Y: 900}
	flush(h, 1, func() { h.SpawnEntity(10, farPos, []float64{1, 1, 1}) })
	if c.Snapshots != 0 {
		t.Fatal("snapshot for an entity outside the window")
	}
	// Entity walks into the window: snapshot.
	flush(h, 2, func() { h.UpdateEntity(10, spatial.Vec2{X: 110, Y: 100}, []float64{1, 1, 1}) })
	if c.Snapshots != 1 {
		t.Fatalf("enter snapshots = %d, want 1", c.Snapshots)
	}
	snaps := c.Snapshots
	// Moves within the window (cell 32: 110→80 crosses a cell edge but
	// both cells are covered): deltas only, no new snapshot.
	flush(h, 3, func() { h.UpdateEntity(10, spatial.Vec2{X: 80, Y: 100}, []float64{1, 1, 1}) })
	if c.Snapshots != snaps {
		t.Fatal("covered-to-covered cell move re-snapshotted")
	}
	// Entity leaves: removal message (bytes move, snapshots do not).
	bytes := c.Bytes
	flush(h, 4, func() { h.UpdateEntity(10, farPos, []float64{1, 1, 1}) })
	if c.Snapshots != snaps {
		t.Fatal("leave counted as a snapshot")
	}
	if c.Bytes == bytes {
		t.Fatal("leave shipped no removal")
	}
	// Despawn of an out-of-window entity ships nothing.
	bytes = c.Bytes
	flush(h, 5, func() { h.DespawnEntity(10) })
	if c.Bytes != bytes {
		t.Fatal("out-of-window despawn shipped traffic")
	}
}

// TestHubFlushDeterministicAcrossWorkers: two runs of one call sequence
// agree on every client's tallies, on every TickReport and on the
// staleness histogram (whose reservoir keeps samples by arrival order),
// whatever the pool size — with ids on both sides of a varint boundary
// (so a cell's snapshots differ in size and the order of its population
// shows), windows that move, and a budget tight enough that every drain
// cuts mid-backlog and the queue cap drops messages. The totals are the
// figures a hub that queued and drained message by message recorded for
// this sequence: its whole-number focuses put cells at exactly aoi from
// a window, which CellCover leaves out and subscribed lets in, and which
// TestHubModel's random focuses never reach.
func TestHubFlushDeterministicAcrossWorkers(t *testing.T) {
	type connTally struct{ msgs, bytes, snaps, drops int64 }
	type outcome struct {
		reports []TickReport
		conns   []connTally
		stale   *metrics.Histogram
	}
	run := func(pool *sched.Pool) outcome {
		h := NewHub(HubConfig{
			Specs: hubSpecs(), Cell: 32, ByteBudget: 40, MaxQueue: 600, Pool: pool,
		})
		var conns []*Conn
		for i := 0; i < 64; i++ {
			conns = append(conns, h.AddClient(i, spatial.Vec2{X: float64(i * 13 % 300), Y: float64(i * 29 % 300)}, 48, 0))
		}
		var out outcome
		for tick := int64(1); tick <= 24; tick++ {
			h.BeginTick(tick)
			for id := ID(100); id < 160; id++ {
				if (int64(id)+tick)%11 == 0 {
					h.DespawnEntity(id)
					continue
				}
				x := float64((int64(id)*17 + tick*31) % 300)
				y := float64((int64(id)*23 + tick*7) % 300)
				h.UpdateEntity(id, spatial.Vec2{X: x, Y: y}, []float64{float64(tick), x, y})
			}
			for i, c := range conns {
				if (int64(i)+tick)%5 == 0 {
					h.MoveClient(c, spatial.Vec2{X: float64((int64(i)*13 + tick*19) % 300), Y: c.Focus.Y})
				}
			}
			out.reports = append(out.reports, h.FlushTick())
		}
		for _, c := range conns {
			out.conns = append(out.conns, connTally{c.Msgs, c.Bytes, c.Snapshots, c.Drops})
		}
		out.stale = &h.Staleness
		return out
	}
	pool4 := sched.NewPool(4)
	base := run(sched.NewPool(1))
	for name, pool := range map[string]*sched.Pool{"pool 1 again": sched.NewPool(1), "pool 4": pool4, "pool 4 again": pool4} {
		got := run(pool)
		if !slices.Equal(got.reports, base.reports) {
			t.Errorf("%s: tick reports differ from the first run's", name)
		}
		if !sameStaleness(got.stale, base.stale) {
			t.Errorf("%s: staleness count=%d sum=%v max=%v p99=%v, first run count=%d sum=%v max=%v p99=%v", name,
				got.stale.Count(), got.stale.Sum(), got.stale.Max(), got.stale.Quantile(0.99),
				base.stale.Count(), base.stale.Sum(), base.stale.Max(), base.stale.Quantile(0.99))
		}
		for i := range got.conns {
			if got.conns[i] != base.conns[i] {
				t.Errorf("%s: client %d tallied %+v, first run %+v", name, i, got.conns[i], base.conns[i])
			}
		}
	}
	last := base.reports[len(base.reports)-1]
	var sum TickReport
	for _, r := range base.reports {
		sum.Msgs += r.Msgs
		sum.Bytes += r.Bytes
		sum.Snapshots += r.Snapshots
		sum.Drops += r.Drops
	}
	if sum.Msgs != 5403 || sum.Bytes != 77914 || sum.Snapshots != 5722 || sum.Drops != 13269 {
		t.Errorf("delivered %d msgs, %d bytes, %d snapshots, %d drops; recorded 5403, 77914, 5722, 13269",
			sum.Msgs, sum.Bytes, sum.Snapshots, sum.Drops)
	}
	if last.Tiers[TierExact] == 64 || base.stale.Count() == 0 {
		t.Fatalf("scenario too gentle: tiers %v, %d staleness samples", last.Tiers, base.stale.Count())
	}
}

// tickUpdates counts the field updates the hub shipped this tick.
func tickUpdates(h *Hub) int { return len(h.ups) }

// TestHubDueIndexStaysBounded: 2 000 entities drift under epsilon for
// 300 ticks, written on two ticks in three, so nearly every evaluation
// declines and leaves something pending. An entity is registered once
// per due tick, not once per declined evaluation: the index never holds
// more than entities × fields entries, BeginTick never evaluates more
// than every entity once, and each tick ships what refHub's scan of
// every field of every entity ships.
func TestHubDueIndexStaysBounded(t *testing.T) {
	const ents = 2000
	cfg := HubConfig{Specs: hubSpecs(), Cell: 32}
	h, ref := NewHub(cfg), newRefHub(cfg)
	shipped := 0
	for tick := int64(1); tick <= 300; tick++ {
		h.BeginTick(tick)
		ref.beginTick(tick)
		if h.dueEvals > ents {
			t.Fatalf("tick %d: BeginTick evaluated %d times for %d entities", tick, h.dueEvals, ents)
		}
		for id := ID(1); id <= ents; id++ {
			if tick > 1 && (int64(id)+tick)%3 == 0 {
				continue
			}
			pos := spatial.Vec2{X: float64(id % 50 * 20), Y: float64(id / 50 * 20)}
			vals := []float64{7, pos.X + 0.001*float64(tick*(int64(id)%7)), float64(tick)}
			h.UpdateEntity(id, pos, vals)
			ref.update(id, pos, vals)
		}
		pending := 0
		for _, ids := range h.dueAt {
			pending += len(ids)
		}
		if pending > ents*len(cfg.Specs) {
			t.Fatalf("tick %d: %d due entries for %d entities × %d fields", tick, pending, ents, len(cfg.Specs))
		}
		want := 0
		for _, it := range ref.log {
			if it.update {
				want++
			}
		}
		if got := tickUpdates(h); got != want {
			t.Fatalf("tick %d: shipped %d updates, a scan of every field ships %d", tick, got, want)
		}
		shipped += want
	}
	if shipped < 100*ents {
		t.Fatalf("only %d updates in 300 ticks: the due index was not exercised", shipped)
	}
}

// TestHubStrayPositions: a position no cell can hold — non-finite, or
// so far out that the directory would pass its cap — is a despawn for
// every subscriber, counted, and costs no memory; the entity is back
// with the next sane update.
func TestHubStrayPositions(t *testing.T) {
	h := newTestHub(0)
	c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 50, 0)
	home := spatial.Vec2{X: 110, Y: 100}
	vals := []float64{1, 1, 1}
	flush(h, 1, func() { h.SpawnEntity(10, home, vals) })
	cells := len(h.dir)
	tick := int64(2)
	for _, v := range []float64{1e12, -1e12, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []spatial.Vec2{{X: v, Y: 100}, {X: 100, Y: v}} {
			strays, msgs, bytes := h.StrayTotal.Load(), c.Msgs, c.Bytes
			flush(h, tick, func() { h.UpdateEntity(10, at, vals) })
			if h.Entities() != 0 || h.StrayTotal.Load() != strays+1 {
				t.Fatalf("update to %v: %d entities, %d strays counted", at, h.Entities(), h.StrayTotal.Load()-strays)
			}
			if c.Msgs != msgs+1 || c.Bytes != bytes+removeSize(10) {
				t.Fatalf("update to %v shipped %d messages, %d bytes; want one removal", at, c.Msgs-msgs, c.Bytes-bytes)
			}
			// Unknown and still astray: refused again, nothing to remove.
			flush(h, tick+1, func() { h.SpawnEntity(10, at, vals) })
			if h.Entities() != 0 || h.StrayTotal.Load() != strays+2 || c.Msgs != msgs+1 {
				t.Fatalf("spawn at %v: %d entities, %d strays, %d messages", at, h.Entities(), h.StrayTotal.Load()-strays, c.Msgs-msgs-1)
			}
			snaps := c.Snapshots
			flush(h, tick+2, func() { h.UpdateEntity(10, home, vals) })
			if h.Entities() != 1 || c.Snapshots != snaps+1 {
				t.Fatalf("after %v: %d entities, %d snapshots on return", at, h.Entities(), c.Snapshots-snaps)
			}
			tick += 3
		}
	}
	if len(h.dir) != cells {
		t.Fatalf("strays grew the directory from %d to %d cells", cells, len(h.dir))
	}
	checkHubInvariants(t, h)

	// The cap is on the box, not on distance: a far entity is fine on
	// its own, two far apart are not.
	far := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32})
	far.SpawnEntity(1, spatial.Vec2{X: 1e6, Y: 1e6}, vals)
	far.SpawnEntity(2, spatial.Vec2{X: -1e6, Y: -1e6}, vals)
	if far.Entities() != 1 || far.StrayTotal.Load() != 1 || len(far.dir) > maxDirCells {
		t.Fatalf("two entities 2e6 apart: %d placed, %d strays, %d cells", far.Entities(), far.StrayTotal.Load(), len(far.dir))
	}
	checkHubInvariants(t, far)
}
