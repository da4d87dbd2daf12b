package shard

import (
	"errors"
	"sync"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/mesh"
	"gamedb/internal/metrics"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
	"gamedb/internal/world"
)

// Cluster drives a grid of wire-connected Peers inside one process: it
// is the sharded runtime. New builds one over the in-process pipe mesh,
// NewTCPCluster over loopback sockets; both run the same barrier, frame
// for frame. Peers run in lockstep: every operation fans out to all
// peers concurrently (barrier rounds block on each other's frames, so
// they must overlap) and joins before returning. Peer 0 runs on the
// caller's goroutine and every other peer on a goroutine of its own,
// started with the cluster and stopped by Close.
type Cluster struct {
	peers []*Peer
	// ops[i] hands peer i > 0 its next operation; done waits for the
	// peers to finish one operation, served for their goroutines to exit.
	ops    []chan clusterOp
	done   sync.WaitGroup
	served sync.WaitGroup
	// Per-peer results of the current operation, reused every call; blobs
	// carries snapshot parts out of opSnapshot and into opRestore.
	sts    []StepStats
	hashes []uint64
	blobs  [][]byte

	// err is the cluster's first failure. It is sticky: once a peer has
	// failed the mesh is down, and every later operation returns it.
	errMu     sync.Mutex
	err       error
	closeOnce sync.Once

	// LocalCount[i] is shard i's owned-entity count after the latest
	// barrier. HandoffTotal, GhostShipTotal, GhostSnapshotTotal and
	// GhostFieldSkipTotal accumulate StepStats' barrier tallies across
	// the run (initial Syncs included); ForwardTotal, RemoteMergeTotal
	// and RemoteInvalidationTotal its effect-forwarding exchange:
	// records forwarded to owners, foreign records merged, and foreign
	// invocations invalidated by owner-side OCC validation.
	LocalCount              []metrics.Counter
	HandoffTotal            metrics.Counter
	GhostShipTotal          metrics.Counter
	GhostSnapshotTotal      metrics.Counter
	GhostFieldSkipTotal     metrics.Counter
	ForwardTotal            metrics.Counter
	RemoteMergeTotal        metrics.Counter
	RemoteInvalidationTotal metrics.Counter
	// StepNS records each Step's wall time.
	StepNS metrics.Histogram
}

// clusterOp is one lockstep operation every peer runs.
type clusterOp int

const (
	opStep clusterOp = iota
	opSync
	opHash
	opSnapshot
	opRestore
)

// errClosed is what operations on a closed cluster return.
var errClosed = errors.New("shard: cluster closed")

// NewTCPCluster builds a cluster whose peers talk TCP over loopback —
// every barrier frame crosses a real socket, pricing the full network
// path while staying a one-process test subject.
func NewTCPCluster(cfg Config) (*Cluster, error) {
	cfg = withDefaults(cfg)
	meshes, err := mesh.NewTCPLoopbackGroup(cfg.Shards)
	if err != nil {
		return nil, err
	}
	trs := make([]mesh.Transport, len(meshes))
	for i, m := range meshes {
		trs[i] = m
	}
	return newCluster(cfg, trs)
}

func newCluster(cfg Config, trs []mesh.Transport) (*Cluster, error) {
	n := len(trs)
	c := &Cluster{
		peers:      make([]*Peer, n),
		ops:        make([]chan clusterOp, n),
		sts:        make([]StepStats, n),
		hashes:     make([]uint64, n),
		blobs:      make([][]byte, n),
		LocalCount: make([]metrics.Counter, n),
	}
	for i, tr := range trs {
		p, err := NewPeer(cfg, tr)
		if err != nil {
			for _, t := range trs {
				t.Close()
			}
			return nil, err
		}
		p.onFail = c.fail
		c.peers[i] = p
	}
	for i := 1; i < n; i++ {
		c.ops[i] = make(chan clusterOp)
		c.served.Add(1)
		go c.serve(i)
	}
	return c, nil
}

// serve is peer i's goroutine: it runs each operation handed to it
// until Close closes its channel.
func (c *Cluster) serve(i int) {
	defer c.served.Done()
	for op := range c.ops[i] {
		c.run(i, op)
		c.done.Done()
	}
}

// run performs op on peer i. A peer reports its failure through onFail
// (c.fail) before its transport closes; run repeats the report for any
// error that did not come that way.
func (c *Cluster) run(i int, op clusterOp) {
	p := c.peers[i]
	var err error
	switch op {
	case opStep:
		c.sts[i], err = p.Step()
	case opSync:
		c.sts[i] = StepStats{}
		err = p.barrier(&c.sts[i], false)
	case opHash:
		c.hashes[i], err = p.Hash()
	case opSnapshot:
		c.blobs[i], err = p.snapshot()
	case opRestore:
		err = p.restore(c.blobs[i])
	}
	if err != nil {
		c.fail(err)
	}
}

// fail records err unless an earlier failure already is, then closes
// every peer's transport, so no peer stays blocked on a frame the failed
// one will never send. The first failure is the cause; the others are
// peers woken by the teardown.
func (c *Cluster) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	for _, p := range c.peers {
		p.tr.Close()
	}
}

// each runs op on every peer at once and returns the cluster's first
// failure.
func (c *Cluster) each(op clusterOp) error {
	if c.err != nil {
		return c.err
	}
	c.done.Add(len(c.peers) - 1)
	for i := 1; i < len(c.peers); i++ {
		c.ops[i] <- op
	}
	c.run(0, op)
	c.done.Wait()
	return c.err
}

// cluster lets FeedPump accept a *Cluster and the *Runtime wrapping one
// alike.
func (c *Cluster) cluster() *Cluster { return c }

// Shards returns the grid size.
func (c *Cluster) Shards() int { return len(c.peers) }

// ShardWorld returns peer i's world. Outside an operation the caller
// owns every peer's world, so reads are safe.
func (c *Cluster) ShardWorld(i int) *world.World { return c.peers[i].w }

// Tick returns the barrier tick counter.
func (c *Cluster) Tick() int64 { return c.peers[0].tick }

// Owner returns the shard holding the entity as a local (the world
// containing a non-ghost row for it), or -1.
func (c *Cluster) Owner(id entity.ID) int {
	for i, p := range c.peers {
		if _, ok := p.w.TableOf(id); ok && !p.w.IsGhost(id) {
			return i
		}
	}
	return -1
}

// LoadPack loads the pack on every peer — each replays the identical
// coordinator spawn stream, materializing only its own rows.
func (c *Cluster) LoadPack(pack *content.Compiled) error {
	for _, p := range c.peers {
		if err := p.LoadPack(pack); err != nil {
			return err
		}
	}
	return nil
}

// CreateTable registers a table on every peer's world.
func (c *Cluster) CreateTable(name string, s *entity.Schema) error {
	for _, p := range c.peers {
		if err := p.CreateTable(name, s); err != nil {
			return err
		}
	}
	return nil
}

// Spawn replays one spawn on every peer and returns the allocated id.
func (c *Cluster) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	owner := c.peers[0].part.Locate(pos)
	return c.replaySpawn(owner, func(p *Peer) (entity.ID, error) { return p.spawnOn(owner, archetype, pos) })
}

// SpawnRaw replays one raw spawn on every peer.
func (c *Cluster) SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error) {
	owner := c.peers[0].rawOwner(vals)
	return c.replaySpawn(owner, func(p *Peer) (entity.ID, error) { return p.spawnRawOn(owner, table, vals) })
}

// replaySpawn runs one spawn, located once (the peers' partitioners are
// replicas), on its owner first and only then on the other peers, which
// materialize nothing and cannot fail. A spawn the owner rejects thus
// advances no peer's id stream, and the peers keep agreeing on ids.
func (c *Cluster) replaySpawn(owner int, spawn func(*Peer) (entity.ID, error)) (entity.ID, error) {
	id, err := spawn(c.peers[owner])
	if err != nil {
		return 0, err
	}
	for i, p := range c.peers {
		if i != owner {
			spawn(p)
		}
	}
	return id, nil
}

// Set writes a column on whichever peer holds the entity.
func (c *Cluster) Set(id entity.ID, col string, v entity.Value) error {
	for _, p := range c.peers {
		if err := p.Set(id, col, v); err != nil {
			return err
		}
	}
	return nil
}

// Sync runs the lockstep barrier without stepping (initial ghost
// materialization after seeding).
func (c *Cluster) Sync() error {
	if err := c.each(opSync); err != nil {
		return err
	}
	c.tally(c.collect())
	return nil
}

// Step advances the grid one tick and aggregates the peers' stats into
// one StepStats: summed tallies (each global count reports on exactly
// one peer), per-shard world stats in shard order, and phase timings
// from the slowest peer — the lockstep grid runs at the pace of its
// slowest member.
func (c *Cluster) Step() (StepStats, error) {
	t0 := time.Now()
	err := c.each(opStep)
	st := c.collect()
	if err != nil {
		return st, err
	}
	c.tally(st)
	c.StepNS.Record(float64(time.Since(t0).Nanoseconds()))
	return st, nil
}

// collect folds the peers' stats of the operation just run.
func (c *Cluster) collect() StepStats {
	agg := StepStats{Tick: c.peers[0].tick, Shards: make([]world.TickStats, 0, len(c.peers))}
	for i := range c.sts {
		st := &c.sts[i]
		agg.Entities += st.Entities
		agg.Ghosts += st.Ghosts
		agg.Handoffs += st.Handoffs
		agg.GhostShips += st.GhostShips
		agg.GhostSnapshots += st.GhostSnapshots
		agg.GhostFieldSkips += st.GhostFieldSkips
		agg.EffectsForwarded += st.EffectsForwarded
		agg.EffectsRemoteMerged += st.EffectsRemoteMerged
		agg.RemoteInvalidations += st.RemoteInvalidations
		agg.WireBytesOut += st.WireBytesOut
		agg.WireBytesIn += st.WireBytesIn
		agg.WireFrames += st.WireFrames
		agg.Shards = append(agg.Shards, st.Shards...)
		agg.ParallelNS = max(agg.ParallelNS, st.ParallelNS)
		agg.BarrierNS = max(agg.BarrierNS, st.BarrierNS)
		agg.ReconcileNS = max(agg.ReconcileNS, st.ReconcileNS)
	}
	return agg
}

// tally adds one barrier's stats to the run totals.
func (c *Cluster) tally(st StepStats) {
	c.HandoffTotal.Add(int64(st.Handoffs))
	c.GhostShipTotal.Add(int64(st.GhostShips))
	c.GhostSnapshotTotal.Add(int64(st.GhostSnapshots))
	c.GhostFieldSkipTotal.Add(int64(st.GhostFieldSkips))
	c.ForwardTotal.Add(int64(st.EffectsForwarded))
	c.RemoteMergeTotal.Add(int64(st.EffectsRemoteMerged))
	c.RemoteInvalidationTotal.Add(int64(st.RemoteInvalidations))
	for i, p := range c.peers {
		c.LocalCount[i].Reset()
		c.LocalCount[i].Add(int64(p.w.LocalEntities()))
	}
}

// Hash gathers every peer's owned rows to peer 0 over the mesh and
// returns the global digest.
func (c *Cluster) Hash() (uint64, error) {
	err := c.each(opHash)
	return c.hashes[0], err
}

// Entities returns the grid's owned-entity total.
func (c *Cluster) Entities() int {
	n := 0
	for _, p := range c.peers {
		n += p.w.LocalEntities()
	}
	return n
}

// Ghosts returns the grid's mirror total.
func (c *Cluster) Ghosts() int {
	n := 0
	for _, p := range c.peers {
		n += p.w.GhostCount()
	}
	return n
}

// WireStats sums the peers' cumulative transport counters.
func (c *Cluster) WireStats() wire.Stats {
	var s wire.Stats
	for _, p := range c.peers {
		ps := p.WireStats()
		s.BytesOut += ps.BytesOut
		s.BytesIn += ps.BytesIn
		s.FramesOut += ps.FramesOut
		s.FramesIn += ps.FramesIn
	}
	return s
}

// Close stops the peer goroutines, waits for them to exit and tears the
// mesh down; later operations return an error.
func (c *Cluster) Close() error {
	var first error
	c.closeOnce.Do(func() {
		c.errMu.Lock()
		if c.err == nil {
			c.err = errClosed
		}
		c.errMu.Unlock()
		for i := 1; i < len(c.ops); i++ {
			close(c.ops[i])
		}
		c.served.Wait()
		for _, p := range c.peers {
			if err := p.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}
