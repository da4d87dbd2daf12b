package shard

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/replica"
	"gamedb/internal/spatial"
	"gamedb/internal/world"
)

// clusterCfg is the shared config of this file's cluster tests: a
// 400×400 map, two workers per shard.
func clusterCfg(shards int, conflict string) Config {
	return Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 25, Workers: 2,
		ScriptFuel: 1 << 20, ConflictPolicy: conflict,
	}
}

// TestExchangeScratchReuse pins the peers' barrier scratch: the staging
// arena, the inbound row storage and the effect encoder must keep their
// backing arrays across barriers instead of reallocating per tick.
func TestExchangeScratchReuse(t *testing.T) {
	rt, err := New(clusterCfg(2, "occ"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := borderScenario.Seed(rt, Crowd{Units: 150, Side: 400, Seed: 99, Speed: 25}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	p := rt.peers[0]
	if cap(p.arena) == 0 || cap(p.rowDecBuf) == 0 || len(p.enc.Bytes()) == 0 {
		t.Fatal("barrier scratch never materialized — scenario too quiet")
	}
	arena, rows, enc := &p.arena[:1][0], &p.rowDecBuf[:1][0], &p.enc.Bytes()[:1][0]
	for i := 0; i < 5; i++ {
		if _, err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if &p.arena[:1][0] != arena || &p.rowDecBuf[:1][0] != rows || &p.enc.Bytes()[:1][0] != enc {
		t.Fatal("barrier scratch reallocated across barriers — per-tick garbage crept back in")
	}
}

// TestFailedSpawnLeavesIDsAlone: a spawn its owner rejects (an unknown
// archetype, an unknown table, a column of the wrong kind) consumes no
// id on any peer. The peers therefore keep agreeing on ids: every later
// spawn is found on the shard owning its position, Set reaches its row,
// and the run hashes as if the failed calls never happened. The failures
// land on shards 0 and 1, which the peers' spawn replay visits before
// the others.
func TestFailedSpawnLeavesIDsAlone(t *testing.T) {
	run := func(fail bool) uint64 {
		rt, err := New(clusterCfg(4, ""))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		if err := loadPack(rt, "mingle", minglePackXML); err != nil {
			t.Fatal(err)
		}
		if fail {
			for _, pos := range []spatial.Vec2{{X: 50, Y: 50}, {X: 250, Y: 50}} {
				if owner := rt.peers[0].part.Locate(pos); owner == rt.Shards()-1 {
					t.Fatalf("%v lies on the last shard; the test needs an earlier one", pos)
				}
				at := map[string]entity.Value{"x": entity.Float(pos.X), "y": entity.Float(pos.Y)}
				badKind := map[string]entity.Value{"x": entity.Float(pos.X), "y": entity.Float(pos.Y), "met": entity.Str("many")}
				if _, err := rt.Spawn("nope", pos); err == nil {
					t.Fatal("spawning an unknown archetype succeeded")
				}
				if _, err := rt.SpawnRaw("nope", at); err == nil {
					t.Fatal("spawning into an unknown table succeeded")
				}
				if _, err := rt.SpawnRaw("units", badKind); err == nil {
					t.Fatal("spawning a string into an int column succeeded")
				}
			}
		}
		if err := spawnMovers(rt, "unit", 250, 400, 77, 30); err != nil {
			t.Fatal(err)
		}
		for i, pos := range []spatial.Vec2{{X: 60, Y: 60}, {X: 340, Y: 60}, {X: 60, Y: 340}, {X: 340, Y: 340}} {
			id, err := rt.Spawn("unit", pos)
			if err != nil {
				t.Fatal(err)
			}
			owner := rt.peers[0].part.Locate(pos)
			if got := rt.Owner(id); got != owner {
				t.Fatalf("fail=%v: id %d spawned at %v is on shard %d, want %d", fail, id, pos, got, owner)
			}
			if err := rt.Set(id, "met", entity.Int(int64(100+i))); err != nil {
				t.Fatal(err)
			}
			if v, err := rt.ShardWorld(owner).Get(id, "met"); err != nil || v != entity.Int(int64(100+i)) {
				t.Fatalf("fail=%v: Set on id %d did not reach its row: %v, %v", fail, id, v, err)
			}
		}
		for i := 0; i < 4; i++ {
			if _, err := rt.Step(); err != nil {
				t.Fatal(err)
			}
			checkWorlds(t, rt, fmt.Sprintf("fail=%v tick %d", fail, i+1))
		}
		return rt.Hash()
	}
	if want, got := run(false), run(true); got != want {
		t.Fatalf("failed spawns changed the run: hash %x, want %x", got, want)
	}
}

// failPackXML gives one archetype a trigger that re-emits its own event
// forever, so the cascade limit trips and the hosting world's Step fails.
const failPackXML = `
<contentpack name="runaway">
  <schema table="units">
    <column name="x" kind="float"/>
    <column name="y" kind="float"/>
  </schema>
  <archetype name="idle" table="units"/>
  <archetype name="runaway" table="units" script="kick"/>
  <script name="kick">
fn on_tick(self) { if tick() == 3 { emit("ping", self, 1); } }
  </script>
  <trigger name="echo" event="ping">
    <when>amount &gt; 0</when>
    <do>emit("ping", self, 1);</do>
  </trigger>
</contentpack>`

// TestStepFailureStopsTheGrid: when one shard's Step fails, the grid's
// Step returns that shard's error — not a neighbour's torn-down receive —
// and every later call returns an error instead of waiting on a peer
// that will never answer, on both transports.
func TestStepFailureStopsTheGrid(t *testing.T) {
	for _, transport := range []string{"inprocess", "tcp"} {
		cl, _ := newGrid(t, clusterCfg(4, ""), transport)
		c, errs := content.LoadAndCompile(strings.NewReader(failPackXML))
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		if err := cl.LoadPack(c); err != nil {
			t.Fatal(err)
		}
		for _, u := range []struct {
			arch string
			pos  spatial.Vec2
		}{{"idle", spatial.Vec2{X: 100, Y: 100}}, {"runaway", spatial.Vec2{X: 300, Y: 100}}, {"idle", spatial.Vec2{X: 300, Y: 300}}} {
			if _, err := cl.Spawn(u.arch, u.pos); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Sync(); err != nil {
			t.Fatal(err)
		}
		var stepErr error
		for i := 0; i < 3 && stepErr == nil; i++ {
			_, stepErr = cl.Step()
		}
		if stepErr == nil || !strings.HasPrefix(stepErr.Error(), "shard 1: ") {
			t.Fatalf("%s: step error %v, want shard 1's", transport, stepErr)
		}
		done := make(chan error, 3)
		go func() {
			_, err := cl.Step()
			done <- err
			done <- cl.Sync()
			_, err = cl.Hash()
			done <- err
		}()
		for i := 0; i < 3; i++ {
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s: call %d after the failure succeeded", transport, i)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: call %d after the failure hung", transport, i)
			}
		}
	}
}

// TestFeedPumpOverTCPMatchesInProcess: FeedPump reads its feeds through
// the cluster, so a TCP grid serves a hub exactly as the in-process one
// does — every client receives the same messages, bytes and drops.
func TestFeedPumpOverTCPMatchesInProcess(t *testing.T) {
	type tally struct{ msgs, bytes, drops int64 }
	run := func(transport string) []tally {
		cfg := benchConfig(4)
		cfg.World = spatial.NewRect(-400, -400, 2400, 2400)
		cfg = borderScenario.Configure(cfg)
		cl, _ := newGrid(t, cfg, transport)
		if err := borderScenario.Seed(cl, Crowd{Units: 600, Side: 2000, Seed: 2009}); err != nil {
			t.Fatal(err)
		}
		hub := borderHub(1500)
		rng := rand.New(rand.NewSource(2009))
		conns := make([]*replica.Conn, 2000)
		for i := range conns {
			budget := 0
			if i%10 == 0 {
				budget = 1500 / 8 // throttled: queues back up and drop
			}
			conns[i] = hub.AddClient(i, spatial.Vec2{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}, 64, budget)
		}
		pump := NewFeedPump(cl, hub)
		pump.Pump()
		hub.FlushTick()
		for i := 0; i < 12; i++ {
			if _, err := cl.Step(); err != nil {
				t.Fatalf("%s tick %d: %v", transport, i+1, err)
			}
			pump.Pump()
			hub.FlushTick()
		}
		out := make([]tally, len(conns))
		for i, c := range conns {
			out[i] = tally{c.Msgs, c.Bytes, c.Drops}
		}
		return out
	}
	// The pinned totals and per-client hash were recorded from the pump
	// that read per-tick change feeds; pushing every owned row must
	// deliver exactly what it did.
	const (
		wantMsgs, wantBytes, wantDrops = int64(171721), int64(2210121), int64(7840)
		wantHash                       = uint64(0xef845567a36d4fd1)
	)
	for _, transport := range []string{"inprocess", "tcp"} {
		var sum tally
		h := fnv.New64a()
		for _, c := range run(transport) {
			sum.msgs += c.msgs
			sum.bytes += c.bytes
			sum.drops += c.drops
			fmt.Fprintf(h, "%d/%d/%d;", c.msgs, c.bytes, c.drops)
		}
		if sum != (tally{wantMsgs, wantBytes, wantDrops}) || h.Sum64() != wantHash {
			t.Fatalf("%s: clients received %d msgs, %d bytes, %d drops, hash %016x; want %d, %d, %d, %016x", transport,
				sum.msgs, sum.bytes, sum.drops, h.Sum64(), wantMsgs, wantBytes, wantDrops, wantHash)
		}
	}
}

// TestFeedPumpAcrossRestore: a grid restored to an earlier barrier — on
// either transport — replays the run it interrupted, and the hub it
// feeds loses what the restore rolled back while its own tick keeps
// counting: the pump despawns whatever it offered that no shard owns
// any more, whether a restore rolled it back or a host despawned it,
// and the cluster's tick has gone back. After every pump the hub holds
// exactly the grid's owned entities.
func TestFeedPumpAcrossRestore(t *testing.T) {
	for _, transport := range []string{"inprocess", "tcp"} {
		cfg := clusterCfg(4, world.ConflictLastWrite)
		cfg = borderScenario.Configure(cfg)
		cl, hash := newGrid(t, cfg, transport)
		if err := borderScenario.Seed(cl, Crowd{Units: 200, Side: 400, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		hub := borderHub(0)
		hub.AddClient(0, spatial.Vec2{X: 200, Y: 200}, 120, 0)
		pump := NewFeedPump(cl, hub)
		pumpAndFlush := func() int64 {
			t.Helper()
			pump.Pump()
			if hub.Entities() != cl.Entities() {
				t.Fatalf("%s tick %d: hub holds %d entities, the grid %d", transport, cl.Tick(), hub.Entities(), cl.Entities())
			}
			return hub.FlushTick().Tick
		}
		step := func() (hubTick int64, h uint64) {
			t.Helper()
			if _, err := cl.Step(); err != nil {
				t.Fatalf("%s: %v", transport, err)
			}
			checkWorlds(t, cl, transport)
			return pumpAndFlush(), hash()
		}
		pumpAndFlush()
		var hashes [5]uint64
		for tick := int64(1); tick <= 3; tick++ {
			if ht, h := step(); ht != tick {
				t.Fatalf("%s: hub opened tick %d at cluster tick %d", transport, ht, tick)
			} else {
				hashes[tick] = h
			}
		}
		snap, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		_, hashes[4] = step()
		id, err := cl.Spawn("raider", spatial.Vec2{X: 200, Y: 200})
		if err != nil {
			t.Fatal(err)
		}
		step()
		if hub.Entities() != 201 {
			t.Fatalf("%s: hub holds %d entities before the restore, want 201", transport, hub.Entities())
		}
		if err := cl.Restore(snap); err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		checkWorlds(t, cl, transport+" restore")
		if cl.Tick() != 3 || hash() != hashes[3] {
			t.Fatalf("%s: restored to tick %d, hash %016x; want tick 3, %016x", transport, cl.Tick(), hash(), hashes[3])
		}
		hubTick, h := step()
		if h != hashes[4] {
			t.Fatalf("%s: replayed tick 4 hashes %016x, the run %016x", transport, h, hashes[4])
		}
		if hubTick != 6 {
			t.Fatalf("%s: hub opened tick %d after tick 5, want 6", transport, hubTick)
		}
		if slices.Contains(hub.AppendIDs(nil), replica.ID(id)) {
			t.Fatalf("%s: rolled-back %d is still on the hub", transport, id)
		}

		// A host despawn between ticks: the next pump drops it too.
		w := cl.ShardWorld(1)
		units, _ := w.Table("units")
		gone := w.AppendOwned(nil, units)[0]
		if err := w.Despawn(gone); err != nil {
			t.Fatal(err)
		}
		step()
		if slices.Contains(hub.AppendIDs(nil), replica.ID(gone)) || cl.Owner(gone) >= 0 {
			t.Fatalf("%s: despawned %d is still on the hub (owner %d)", transport, gone, cl.Owner(gone))
		}
		if err := cl.Restore(snap[:len(snap)-1]); err == nil {
			t.Fatalf("%s: a truncated snapshot restored", transport)
		}
	}
}
