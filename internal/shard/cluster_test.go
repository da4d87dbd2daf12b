package shard

import (
	"fmt"
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

// clusterCfg is the shared config of the in-process-vs-TCP races in this
// file; both grids must receive the identical config for their hashes to
// be comparable.
func clusterCfg(shards int, conflict string) Config {
	return Config{
		Seed: 7, Shards: shards, World: spatial.NewRect(0, 0, 400, 400),
		TickDT: 0.5, GhostBand: 25, Workers: 2,
		ScriptFuel: 1 << 20, ConflictPolicy: conflict,
	}
}

// shardWorlds is what Runtime and Cluster share for invariant checks.
type shardWorlds interface {
	Shards() int
	ShardWorld(i int) *world.World
}

// checkWorlds runs every shard world's invariant checker (the entity
// directory's: rows, grid slots, ghost marks and routes, behaviors).
func checkWorlds(t *testing.T, sw shardWorlds, when string) {
	t.Helper()
	for i := 0; i < sw.Shards(); i++ {
		if err := sw.ShardWorld(i).Check(); err != nil {
			t.Fatalf("%s, shard %d: %v", when, i, err)
		}
	}
}

// newGrid builds cfg's grid on the named transport — "inprocess" (New's
// pipe mesh) or "tcp" (NewTCPCluster) — closed at test end, plus the
// hash it reports: Runtime.Hash in-process, the lockstep frame gather
// over TCP.
func newGrid(t *testing.T, cfg Config, transport string) (*Cluster, func() uint64) {
	t.Helper()
	if transport == "tcp" {
		cl, err := NewTCPCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl, func() uint64 {
			t.Helper()
			h, err := cl.Hash()
			if err != nil {
				t.Fatalf("tcp hash: %v", err)
			}
			return h
		}
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt.Cluster, rt.Hash
}

// gridHashes seeds cfg's grid on the named transport and returns its
// per-tick hash trajectory (a hash after every step, not just the final
// one, so a divergence pins the exact tick it appeared), checking every
// shard world's invariants after each step, plus the last step's stats.
func gridHashes(t *testing.T, cfg Config, transport string, seed func(*Cluster) error, ticks int) ([]uint64, StepStats, *Cluster) {
	t.Helper()
	cl, hash := newGrid(t, cfg, transport)
	if err := seed(cl); err != nil {
		t.Fatal(err)
	}
	var last StepStats
	hashes := make([]uint64, 0, ticks)
	for i := 0; i < ticks; i++ {
		st, err := cl.Step()
		if err != nil {
			t.Fatalf("%s tick %d: %v", transport, i+1, err)
		}
		last = st
		checkWorlds(t, cl, fmt.Sprintf("%s tick %d", transport, i+1))
		hashes = append(hashes, hash())
	}
	return hashes, last, cl
}

// gridRace is one crowd run on both transports: the TCP grid and each
// grid's last step's stats.
type gridRace struct {
	tcp             *Cluster
	inprocSt, tcpSt StepStats
}

// raceTransports runs cfg's crowd on the in-process Runtime and on a TCP
// cluster and fails at the first tick whose hashes differ: the Runtime's
// directly collected digest against the frame gather over sockets.
func raceTransports(t *testing.T, name string, cfg Config, seed func(*Cluster) error, ticks int) gridRace {
	t.Helper()
	var r gridRace
	var want, got []uint64
	want, r.inprocSt, _ = gridHashes(t, cfg, "inprocess", seed, ticks)
	got, r.tcpSt, r.tcp = gridHashes(t, cfg, "tcp", seed, ticks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s shards=%d: tcp hash diverged at tick %d: %x vs in-process %x", name, cfg.Shards, i+1, got[i], want[i])
		}
	}
	return r
}

// TestClusterMatchesRuntimeMingle pins the TCP cluster to the in-process
// Runtime on the apply-heavy mingle crowd: every tick's global hash must
// be bit-identical across 1/2/4-shard grids under both conflict
// policies, and a multi-shard barrier must record its traffic in
// StepStats on both transports.
func TestClusterMatchesRuntimeMingle(t *testing.T) {
	const ticks = 12
	for _, conflict := range []string{"", "occ"} {
		for _, shards := range []int{1, 2, 4} {
			name := "mingle/" + conflict
			r := raceTransports(t, name, clusterCfg(shards, conflict),
				func(cl *Cluster) error { return SeedMingleCluster(cl, 250, 400, 77, 30) }, ticks)
			if shards == 1 {
				continue
			}
			for transport, st := range map[string]StepStats{"inprocess": r.inprocSt, "tcp": r.tcpSt} {
				if st.WireFrames == 0 || st.WireBytesOut == 0 || st.WireBytesIn == 0 {
					t.Fatalf("%s %s shards=%d: no wire traffic recorded in StepStats: %+v", name, transport, shards, st)
				}
			}
		}
	}
}

// TestClusterMatchesRuntimeBorder races the adversarial cross-shard
// write scenario — RemoteEffectBatch traffic both directions every
// tick, OCC re-runs included — on both transports at 2 and 4 shards.
func TestClusterMatchesRuntimeBorder(t *testing.T) {
	const ticks = 12
	for _, conflict := range []string{"", "occ"} {
		for _, shards := range []int{2, 4} {
			cfg := clusterCfg(shards, conflict)
			cfg.GhostBand = 20
			cfg.GhostFields = BorderGhostFields()
			name := "border/" + conflict
			r := raceTransports(t, name, cfg,
				func(cl *Cluster) error { return SeedBorderCluster(cl, 200, 400, 99, 25) }, ticks)
			if r.inprocSt.EffectsForwarded == 0 || r.tcpSt.EffectsForwarded != r.inprocSt.EffectsForwarded {
				t.Fatalf("%s shards=%d: forwarded %d effects in-process, %d over tcp — scenario not exercising the exchange alike",
					name, shards, r.inprocSt.EffectsForwarded, r.tcpSt.EffectsForwarded)
			}
		}
	}
}

// TestClusterMatchesRuntimeTCP runs the border race over real loopback
// sockets: same hashes, every byte through the kernel.
func TestClusterMatchesRuntimeTCP(t *testing.T) {
	const ticks = 8
	cfg := clusterCfg(2, "occ")
	cfg.GhostBand = 20
	cfg.GhostFields = BorderGhostFields()
	r := raceTransports(t, "border/tcp", cfg,
		func(cl *Cluster) error { return SeedBorderCluster(cl, 150, 400, 99, 25) }, ticks)
	ws := r.tcp.WireStats()
	if ws.BytesOut == 0 || ws.BytesIn == 0 {
		t.Fatalf("tcp cluster moved no bytes: %+v", ws)
	}
}

// TestClusterRebalanceAndDrift exercises the counts round over real
// sockets: a drifting crowd with periodic rebalancing must stay
// hash-identical to the in-process grid — the lockstep partitioner
// replicas only stay replicas if every peer feeds Rebalance the
// identical global counts at the identical ticks.
func TestClusterRebalanceAndDrift(t *testing.T) {
	const ticks = 16
	cfg := clusterCfg(4, "")
	cfg.RebalanceEvery = 5
	cfg.RebalanceMaxShift = 8
	st := raceTransports(t, "drift+rebalance", cfg,
		func(cl *Cluster) error { return SeedDriftingCluster(cl, 300, 400, 41, 35) }, ticks).tcpSt
	if st.Entities != 300 {
		t.Fatalf("cluster lost entities: %d of 300", st.Entities)
	}
	if st.WireFrames == 0 || st.WireBytesOut == 0 || st.WireBytesIn == 0 {
		t.Fatalf("no wire traffic recorded in StepStats: %+v", st)
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
	if err := SeedBorderCrowd(rt, 150, 400, 99, 25); err != nil {
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
		if err := loadPack(rt, "mingle", MinglePackXML); err != nil {
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
		cfg.GhostFields = BorderGhostFields()
		cfg.ChangeFeed = true
		cl, _ := newGrid(t, cfg, transport)
		if err := SeedBorderCluster(cl, 600, 2000, 2009, 6); err != nil {
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
	want, got := run("inprocess"), run("tcp")
	var sum tally
	for i := range want {
		sum.msgs += want[i].msgs
		sum.drops += want[i].drops
		if got[i] != want[i] {
			t.Fatalf("client %d: tcp delivered %+v, in-process %+v", i, got[i], want[i])
		}
	}
	if sum.msgs == 0 || sum.drops == 0 {
		t.Fatalf("clients received %d messages and dropped %d — the crowd is not exercising the hub", sum.msgs, sum.drops)
	}
}

// TestFeedPumpAcrossRestore: a grid restored to an earlier barrier — on
// either transport — replays the run it interrupted, and the hub it
// feeds loses what the restore rolled back while its own tick keeps
// counting: the feed of a restored world is tainted and records no
// despawns, and the cluster's tick has gone back.
func TestFeedPumpAcrossRestore(t *testing.T) {
	for _, transport := range []string{"inprocess", "tcp"} {
		cfg := clusterCfg(4, world.ConflictLastWrite)
		cfg.GhostFields = BorderGhostFields()
		cfg.ChangeFeed = true
		cl, hash := newGrid(t, cfg, transport)
		if err := SeedBorderCluster(cl, 200, 400, 7, 6); err != nil {
			t.Fatal(err)
		}
		hub := borderHub(0)
		hub.AddClient(0, spatial.Vec2{X: 200, Y: 200}, 120, 0)
		pump := NewFeedPump(cl, hub)
		step := func() (hubTick int64, h uint64) {
			t.Helper()
			if _, err := cl.Step(); err != nil {
				t.Fatalf("%s: %v", transport, err)
			}
			checkWorlds(t, cl, transport)
			pump.Pump()
			return hub.FlushTick().Tick, hash()
		}
		pump.Pump()
		hub.FlushTick()
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
		if hub.Entities() != cl.Entities() || slices.Contains(hub.AppendIDs(nil), replica.ID(id)) {
			t.Fatalf("%s: hub holds %d entities, the grid %d; rolled-back %d still there: %v", transport,
				hub.Entities(), cl.Entities(), id, slices.Contains(hub.AppendIDs(nil), replica.ID(id)))
		}
		if err := cl.Restore(snap[:len(snap)-1]); err == nil {
			t.Fatalf("%s: a truncated snapshot restored", transport)
		}
	}
}
