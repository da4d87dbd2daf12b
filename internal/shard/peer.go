package shard

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/obs"
	"gamedb/internal/replica"
	"gamedb/internal/sched"
	"gamedb/internal/spatial"
	"gamedb/internal/wire"
	"gamedb/internal/world"
)

// Peer is one shard of the grid: it owns exactly one world and talks to
// every other shard through frames on a wire.Transport, so the grid can
// live in one process (a Cluster over the pipe or loopback TCP), across
// processes, or across hosts — with bit-identical results on the same
// seed.
//
// The design is a lockstep replicated coordinator: there is no central
// barrier process. Under the state-effect pattern every barrier decision
// — who rebalances where, which invocations re-run, which mirrors
// refresh — is a pure function of merged effects, so each peer evaluates
// it from its own state plus the frames every peer exchanges each
// barrier, identically everywhere. Ghost-ship policy runs at the
// RECEIVER: barrier frames carry each border candidate's full row, and
// the mirror host evaluates ship policy against its own last-shipped
// bookkeeping, so no per-mirror state ever has to migrate.
type Peer struct {
	cfg  Config
	self int
	n    int
	part *Partitioner
	band ghostBand // rebuilt whenever part rebalances
	w    *world.World
	tr   wire.Transport
	// onFail, when set, hears every error the peer aborts with before
	// the mesh comes down (a Cluster records its first failure there).
	onFail func(error)
	rng    *rand.Rand // replicated coordinator rng: every peer replays the same stream
	specs  []replica.FieldSpec
	spans  *obs.SpanCtx

	nextID entity.ID
	tick   int64 // game tick, drives ship-policy timestamps
	seq    int64 // barrier sequence, stamps frames (Sync counts too, game ticks don't reset it)

	recs      map[entity.ID]ghostRec
	freeRecs  []ghostRec // bookkeeping of expired mirrors, reused by new ones
	specInfos map[*entity.Table]*tableSpecInfo
	// tickStats backs StepStats.Shards, so a step allocates no slice.
	tickStats [1]world.TickStats

	// Frame reorder buffer: a fast peer can send its next barrier's
	// frames before this one finished the current round, so Recv results
	// that don't match the round being collected park here.
	pend     []wire.Frame
	roundBuf [][]byte
	roundGot []bool

	// Outbound barrier staging: per-destination migration/candidate
	// lists with row copies in one shared value arena (index ranges stay
	// valid across arena growth), encoded and sent by sendFn on its own
	// goroutine while the peer applies the barrier locally.
	outMigs  [][]stagedMig
	outCands [][]stagedCand
	arena    []entity.Value
	idBuf    []entity.ID
	pipeEnc  wire.Enc
	sendFn   func() // p.sendBarrier, bound once
	sendDone chan error

	// Inbound barrier scratch, reused across barriers.
	inMigs      []inMig
	inCands     []inCand
	rowDecBuf   []entity.Value
	rowScratch  []entity.Value
	desired     map[entity.ID]inCand
	migratedOut map[entity.ID]struct{}
	outIDs      []entity.ID
	goneSet     map[entity.ID]bool
	goneBuf     []entity.ID

	// Exchange scratch.
	enc        wire.Enc
	dec        *wire.Dec
	interner   *wire.Interner
	inBatch    world.RemoteEffectBatch
	verdictBuf []world.ForeignInvalidation
	reruns     []world.ForeignInvalidation
	rerunOwn   []world.ForeignInvalidation
	invalidSet map[world.ForeignKey]struct{}
	counts     []int64
}

// NewPeer builds shard `self` of an n-shard grid. cfg is the SAME config
// every peer receives; tr is this peer's endpoint of an n-way mesh.
func NewPeer(cfg Config, tr wire.Transport) (*Peer, error) {
	cfg = withDefaults(cfg)
	if cfg.Shards != tr.N() {
		return nil, fmt.Errorf("shard: config wants %d shards but transport mesh has %d", cfg.Shards, tr.N())
	}
	self := tr.Self()
	part, err := NewPartitioner(cfg.World, cfg.Shards)
	if err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		pool = sched.Shared()
	}
	n := cfg.Shards
	p := &Peer{
		cfg:         cfg,
		self:        self,
		n:           n,
		part:        part,
		band:        newGhostBand(cfg.GhostBand, part),
		w:           newShardWorld(cfg, self, n, pool),
		tr:          tr,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		specs:       cfg.GhostFields,
		spans:       cfg.Tracer.Context(self),
		recs:        make(map[entity.ID]ghostRec),
		specInfos:   make(map[*entity.Table]*tableSpecInfo),
		roundBuf:    make([][]byte, n),
		roundGot:    make([]bool, n),
		outMigs:     make([][]stagedMig, n),
		outCands:    make([][]stagedCand, n),
		sendDone:    make(chan error, 1),
		desired:     make(map[entity.ID]inCand),
		migratedOut: make(map[entity.ID]struct{}),
		goneSet:     make(map[entity.ID]bool),
		invalidSet:  make(map[world.ForeignKey]struct{}),
		counts:      make([]int64, n),
		interner:    wire.NewInterner(),
	}
	p.dec = wire.NewDec(nil, p.interner)
	p.sendFn = p.sendBarrier
	return p, nil
}

// Spawn replays one coordinator spawn: every peer advances the shared
// id stream, and only the shard owning pos materializes the row. The
// full stream replays on every peer, which is what keeps ids identical
// for every shard count without any id-allocation traffic.
func (p *Peer) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	return p.spawnOn(p.part.Locate(pos), archetype, pos)
}

// spawnOn advances the id stream and materializes the entity when shard
// owner is this peer, taking the id back if that fails.
func (p *Peer) spawnOn(owner int, archetype string, pos spatial.Vec2) (entity.ID, error) {
	p.nextID++
	if owner == p.self {
		if err := p.w.SpawnAt(p.nextID, archetype, pos); err != nil {
			p.nextID--
			return 0, err
		}
	}
	return p.nextID, nil
}

// SpawnRaw replays one coordinator raw spawn (see Spawn).
func (p *Peer) SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error) {
	return p.spawnRawOn(p.rawOwner(vals), table, vals)
}

// rawOwner is the shard a raw spawn materializes on: the one owning its
// x/y position, shard 0 when the table is not spatial.
func (p *Peer) rawOwner(vals map[string]entity.Value) int {
	if x, okX := vals["x"].AsFloat(); okX {
		if y, okY := vals["y"].AsFloat(); okY {
			return p.part.Locate(spatial.Vec2{X: x, Y: y})
		}
	}
	return 0
}

// spawnRawOn advances the id stream and materializes the row when shard
// owner is this peer, taking the id back if that fails.
func (p *Peer) spawnRawOn(owner int, table string, vals map[string]entity.Value) (entity.ID, error) {
	p.nextID++
	if owner == p.self {
		if err := p.w.SpawnRawAt(p.nextID, table, vals); err != nil {
			p.nextID--
			return 0, err
		}
	}
	return p.nextID, nil
}

// Set writes a column when this peer holds the entity; elsewhere it is
// a no-op (the holding peer replays the same call on the same stream).
func (p *Peer) Set(id entity.ID, col string, v entity.Value) error {
	if _, ok := p.w.TableOf(id); ok && !p.w.IsGhost(id) {
		return p.w.Set(id, col, v)
	}
	return nil
}

// CreateTable registers a table in the peer's world.
func (p *Peer) CreateTable(name string, s *entity.Schema) error {
	_, err := p.w.CreateTable(name, s)
	return err
}

// LoadPack loads a compiled content pack and replays its spawn stream
// through the replicated coordinator rng, so each entity materializes
// once, on the shard owning its position, with identical ids and
// positions for every shard count.
func (p *Peer) LoadPack(c *content.Compiled) error {
	if err := p.w.LoadContent(c); err != nil {
		return err
	}
	return world.ForEachSpawn(c, p.rng, func(archetype string, pos spatial.Vec2) error {
		_, err := p.Spawn(archetype, pos)
		return err
	})
}

// fail reports err to the peer's host, if it registered onFail, then
// tears the mesh down so peers blocked on Recv error out instead of
// deadlocking when this peer aborts a barrier. Reporting first lets a
// Cluster name the failing peer's error, not a woken neighbour's.
func (p *Peer) fail(err error) error {
	if p.onFail != nil {
		p.onFail(err)
	}
	p.tr.Close()
	return err
}

// Step advances the peer one tick in lockstep with the rest of the
// grid: the local world steps (the parallel phase), then the barrier
// runs. The returned Shards slice is the peer's own; the next Step
// overwrites it.
func (p *Peer) Step() (StepStats, error) {
	p.tick++
	st := StepStats{Tick: p.tick, Shards: p.tickStats[:]}
	t0 := time.Now()
	var err error
	p.tickStats[0], err = p.w.Step()
	st.ParallelNS = time.Since(t0).Nanoseconds()
	p.spans.Span(obs.SpanParallel, p.tick, -1, t0)
	if err != nil {
		return st, p.fail(fmt.Errorf("shard %d: %w", p.self, err))
	}
	return st, p.barrier(&st, true)
}

// Sync runs the barrier without stepping — the initial ghost
// materialization after seeding, in lockstep (every peer must call it
// at the same point).
func (p *Peer) Sync() error {
	var st StepStats
	return p.barrier(&st, false)
}

// barrier runs one tick barrier into st: the effect exchange (round A,
// plus the verdict round B when anything crossed anywhere), the counts
// round on rebalance ticks of a stepped barrier, and the handoff/ghost
// round C. A failed round tears the mesh down.
func (p *Peer) barrier(st *StepStats, stepped bool) error {
	p.seq++
	w0 := p.tr.Stats()
	t0 := time.Now()
	reruns, err := p.roundEffects(st)
	if err == nil && stepped && p.cfg.RebalanceEvery > 0 && p.tick%p.cfg.RebalanceEvery == 0 {
		err = p.roundCounts()
	}
	if err == nil {
		err = p.roundBarrier(st, reruns)
	}
	if err != nil {
		return p.fail(err)
	}
	st.BarrierNS = time.Since(t0).Nanoseconds()
	p.spans.Span(obs.SpanBarrier, p.tick, -1, t0)
	st.Entities = p.w.LocalEntities()
	st.Ghosts = p.w.GhostCount()
	w1 := p.tr.Stats()
	st.WireBytesOut = w1.BytesOut - w0.BytesOut
	st.WireBytesIn = w1.BytesIn - w0.BytesIn
	st.WireFrames = (w1.FramesOut - w0.FramesOut) + (w1.FramesIn - w0.FramesIn)
	return nil
}

// collectRound gathers the current round's frame from every other peer,
// parking frames that belong to other rounds (or the next barrier) in
// the reorder buffer. Returned payloads are indexed by source peer and
// owned by the caller until recycleRound.
func (p *Peer) collectRound(kind byte) ([][]byte, error) {
	for i := range p.roundGot {
		p.roundGot[i] = false
		p.roundBuf[i] = nil
	}
	need := p.n - 1
	keep := p.pend[:0]
	for _, f := range p.pend {
		if f.Kind == kind && f.Tick == p.seq && !p.roundGot[f.Src] {
			p.roundBuf[f.Src] = f.Payload
			p.roundGot[f.Src] = true
			need--
		} else {
			keep = append(keep, f)
		}
	}
	p.pend = keep
	t0 := time.Now()
	for need > 0 {
		f, err := p.tr.Recv()
		if err != nil {
			return nil, fmt.Errorf("shard %d: recv round %d seq %d: %w", p.self, kind, p.seq, err)
		}
		if f.Src < 0 || f.Src >= p.n || f.Src == p.self {
			return nil, fmt.Errorf("shard %d: frame from bad peer %d", p.self, f.Src)
		}
		if f.Kind == kind && f.Tick == p.seq {
			if p.roundGot[f.Src] {
				return nil, fmt.Errorf("shard %d: duplicate frame kind %d from %d", p.self, kind, f.Src)
			}
			p.roundBuf[f.Src] = f.Payload
			p.roundGot[f.Src] = true
			need--
			continue
		}
		p.pend = append(p.pend, f)
	}
	p.spans.Span(obs.SpanWireRecv, p.tick, -1, t0)
	return p.roundBuf, nil
}

// recycleRound hands the round's payload buffers back to the transport.
func (p *Peer) recycleRound(bufs [][]byte) {
	for i, b := range bufs {
		if p.roundGot[i] {
			p.tr.Recycle(b)
			p.roundBuf[i] = nil
			p.roundGot[i] = false
		}
	}
}

// decReset rebinds the shared decoder to one round payload.
func (p *Peer) decReset(b []byte) *wire.Dec {
	p.dec.Reset(b)
	return p.dec
}

// roundEffects is barrier round A (+B): forward outbound
// RemoteEffectBatches to their owners, compute the global forwarded
// count, and — when anything crossed anywhere — run the verdict round
// and commit the exchange merge. Validation reads pre-exchange tick
// state, so every verdict is in before any world applies.
func (p *Peer) roundEffects(st *StepStats) ([]world.ForeignInvalidation, error) {
	t0 := time.Now()
	out := p.w.TakeOutbound()
	own := 0
	for di, b := range out {
		if di >= 0 && di < p.n && di != p.self {
			own += len(b.Recs)
		}
	}
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		p.enc.Reset()
		p.enc.Varint(int64(own))
		world.AppendRemoteBatch(&p.enc, out[to])
		if err := p.tr.Send(to, frameEffects, p.seq, p.enc.Bytes()); err != nil {
			return nil, err
		}
	}
	bufs, err := p.collectRound(frameEffects)
	if err != nil {
		return nil, err
	}
	global := own
	// Queue inbound batches in ascending source order, so every owner
	// merges foreign records in one order whatever the arrival order.
	for src := 0; src < p.n; src++ {
		if src == p.self {
			continue
		}
		d := p.decReset(bufs[src])
		global += int(d.Varint())
		world.DecodeRemoteBatch(d, &p.inBatch)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("shard %d: effects frame from %d: %w", p.self, src, err)
		}
		if nr, ni := world.BatchLens(&p.inBatch); nr > 0 || ni > 0 {
			p.w.QueueForeign(src, &p.inBatch)
		}
	}
	p.recycleRound(bufs)
	st.EffectsForwarded = own
	p.spans.Span(obs.SpanForward, p.tick, -1, t0)
	if global == 0 {
		return nil, nil
	}

	// Round B: every peer validates the invocations it owns and shares
	// the verdicts; the union — deduped in source order — drives both the
	// exchange merge and the re-runs (a multi-owner invocation can be
	// invalidated by several owners).
	t1 := time.Now()
	ownVerdicts := p.w.ValidateForeign()
	p.enc.Reset()
	world.AppendVerdicts(&p.enc, ownVerdicts)
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		if err := p.tr.Send(to, frameVerdicts, p.seq, p.enc.Bytes()); err != nil {
			return nil, err
		}
	}
	bufs, err = p.collectRound(frameVerdicts)
	if err != nil {
		return nil, err
	}
	reruns := p.reruns[:0]
	clear(p.invalidSet)
	for src := 0; src < p.n; src++ {
		vs := ownVerdicts
		if src != p.self {
			d := p.decReset(bufs[src])
			p.verdictBuf = world.DecodeVerdicts(d, p.verdictBuf[:0])
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("shard %d: verdict frame from %d: %w", p.self, src, err)
			}
			vs = p.verdictBuf
		}
		for _, iv := range vs {
			if _, dup := p.invalidSet[iv.Key]; dup {
				continue
			}
			p.invalidSet[iv.Key] = struct{}{}
			reruns = append(reruns, iv)
		}
	}
	p.recycleRound(bufs)
	p.reruns = reruns
	var invalid map[world.ForeignKey]struct{}
	if len(reruns) > 0 {
		invalid = p.invalidSet
	}
	st.EffectsRemoteMerged = p.w.ExchangeApply(invalid)
	if p.self == 0 {
		// Global tallies report once (peer 0), so summing per-peer stats
		// across the grid counts each invalidation once.
		st.RemoteInvalidations = len(reruns)
	}
	p.spans.Span(obs.SpanRemoteMerge, p.tick, -1, t1)
	return reruns, nil
}

// roundCounts is the rebalance round: every peer shares its owned
// count, then runs the identical pure Rebalance step on its own
// partitioner copy — the partitioners stay replicas of each other.
func (p *Peer) roundCounts() error {
	ownCount := int64(p.w.LocalEntities())
	p.enc.Reset()
	p.enc.Varint(ownCount)
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		if err := p.tr.Send(to, frameCounts, p.seq, p.enc.Bytes()); err != nil {
			return err
		}
	}
	bufs, err := p.collectRound(frameCounts)
	if err != nil {
		return err
	}
	p.counts[p.self] = ownCount
	for src := 0; src < p.n; src++ {
		if src == p.self {
			continue
		}
		d := p.decReset(bufs[src])
		p.counts[src] = d.Varint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("shard %d: counts frame from %d: %w", p.self, src, err)
		}
	}
	p.recycleRound(bufs)
	p.part.Rebalance(p.counts, p.cfg.RebalanceMaxShift)
	p.band = newGhostBand(p.cfg.GhostBand, p.part)
	return nil
}

// roundBarrier is round C: stage outbound migrations and full-row ghost
// candidates from one walk over the owned rows, launch the pipelined
// encode+send, and — while those frames are on the wire — collect the
// inbound round, apply migrations, sweep expired mirrors and refresh the
// rest; then re-run the invalidated border invocations this peer owns,
// against the fresh mirrors.
func (p *Peer) roundBarrier(st *StepStats, reruns []world.ForeignInvalidation) error {
	tRec := time.Now()
	if err := p.stageBarrier(); err != nil {
		return err
	}
	// The staged copies are immutable from here on, so the sender races
	// nothing; its wire span lands inside the reconcile window.
	if p.n > 1 {
		go p.sendFn()
	}
	err := p.applyBarrier(st)
	if p.n > 1 {
		if sendErr := <-p.sendDone; err == nil {
			err = sendErr
		}
	}
	if err != nil {
		return err
	}
	st.ReconcileNS = time.Since(tRec).Nanoseconds()
	p.spans.Span(obs.SpanReconcile, p.tick, -1, tRec)
	p.rerunForeign(reruns)
	return nil
}

// stageBarrier walks the owned rows once, staging each row that left
// this shard's region as a migration to its new owner and each row in
// another shard's ghost band as a mirror candidate for that shard.
func (p *Peer) stageBarrier() error {
	p.arena = p.arena[:0]
	for i := 0; i < p.n; i++ {
		p.outMigs[i] = p.outMigs[i][:0]
		p.outCands[i] = p.outCands[i][:0]
	}
	clear(p.migratedOut)
	p.outIDs = p.outIDs[:0]
	for _, name := range p.w.TableNames() {
		t, _ := p.w.Table(name)
		p.idBuf = t.AppendIDs(p.idBuf[:0])
		for _, id := range p.idBuf {
			if p.w.IsGhost(id) {
				continue
			}
			pos, ok := p.w.Pos(id)
			if !ok {
				continue // non-spatial entities never migrate or mirror
			}
			owner := p.part.Locate(pos)
			if owner != p.self {
				lo := len(p.arena)
				arena, err := t.AppendRow(id, p.arena)
				if err != nil {
					return err
				}
				p.arena = arena
				beh, _ := p.w.Behavior(id)
				p.outMigs[owner] = append(p.outMigs[owner], stagedMig{id: id, table: name, behavior: beh, rowLo: lo, rowHi: len(p.arena)})
				p.migratedOut[id] = struct{}{}
				p.outIDs = append(p.outIDs, id)
			}
			if !p.band.on {
				continue
			}
			for di := 0; di < p.n; di++ {
				if p.band.mirrors(di, owner, pos) {
					lo := len(p.arena)
					arena, err := t.AppendRow(id, p.arena)
					if err != nil {
						return err
					}
					p.arena = arena
					p.outCands[di] = append(p.outCands[di], stagedCand{id: id, owner: owner, table: name, rowLo: lo, rowHi: len(p.arena)})
				}
			}
		}
	}
	return nil
}

// sendBarrier encodes and sends this barrier's staged frame to every
// other peer, then reports on sendDone. It runs on its own goroutine,
// overlapping the inbound wait and the local apply.
func (p *Peer) sendBarrier() {
	t0 := time.Now()
	var err error
	for to := 0; to < p.n; to++ {
		if to == p.self {
			continue
		}
		p.pipeEnc.Reset()
		appendBarrierPayload(&p.pipeEnc, p.outMigs[to], p.outCands[to], p.arena)
		if e := p.tr.Send(to, frameBarrier, p.seq, p.pipeEnc.Bytes()); e != nil && err == nil {
			err = e
		}
	}
	p.spans.Span(obs.SpanWire, p.tick, -1, t0)
	p.sendDone <- err
}

// applyBarrier collects and applies the inbound round C: migrations in
// ascending id order — inbound inserts and outbound despawns interleaved
// by id, so every shard count lands on the same world — then the mirror
// sweep and refresh.
func (p *Peer) applyBarrier(st *StepStats) error {
	bufs, err := p.collectRound(frameBarrier)
	if err != nil {
		return err
	}
	p.inMigs = p.inMigs[:0]
	p.inCands = p.inCands[:0]
	p.rowDecBuf = p.rowDecBuf[:0]
	for src := 0; src < p.n; src++ {
		if src == p.self {
			continue
		}
		d := p.decReset(bufs[src])
		p.inMigs, p.inCands, p.rowDecBuf, p.rowScratch = decodeBarrierPayload(d, src, p.inMigs, p.inCands, p.rowDecBuf, p.rowScratch)
		if err := d.Err(); err != nil {
			return fmt.Errorf("shard %d: barrier frame from %d: %w", p.self, src, err)
		}
	}
	p.recycleRound(bufs)

	slices.SortFunc(p.inMigs, func(a, b inMig) int { return cmp.Compare(a.id, b.id) })
	slices.Sort(p.outIDs)
	in, out := 0, 0
	for in < len(p.inMigs) || out < len(p.outIDs) {
		if out >= len(p.outIDs) || (in < len(p.inMigs) && p.inMigs[in].id < p.outIDs[out]) {
			m := &p.inMigs[in]
			in++
			// This shard may mirror the arriving entity; the
			// authoritative row replaces the mirror.
			if p.w.IsGhost(m.id) {
				if err := p.w.Despawn(m.id); err != nil {
					return err
				}
				p.dropRec(m.id)
			}
			if err := p.w.InsertRow(m.id, m.table, m.row); err != nil {
				return err
			}
			if m.behavior != "" {
				p.w.SetBehavior(m.id, m.behavior)
			}
			continue
		}
		if err := p.w.Despawn(p.outIDs[out]); err != nil {
			return err
		}
		out++
	}
	st.Handoffs = len(p.inMigs)

	// Desired mirror set for this shard: inbound candidates plus the
	// self-destined ones staged above (rows copied before any despawn).
	clear(p.desired)
	for i := range p.inCands {
		c := p.inCands[i]
		p.desired[c.id] = c
	}
	for i := range p.outCands[p.self] {
		s := &p.outCands[p.self][i]
		p.desired[s.id] = inCand{id: s.id, owner: s.owner, table: s.table, row: p.arena[s.rowLo:s.rowHi]}
	}
	return p.sweepAndRefresh(st)
}

// sweepAndRefresh expires mirrors that left the band (or whose owner
// despawned), then refreshes the desired set in ascending id order:
// snapshot new mirrors from their candidate rows, re-route every mirror
// to its owner, and re-ship drifted fields per the replica specs. The
// sweep covers the world's ghost marks as well as the recs, so mirrors a
// snapshot Restore resurrected without a rec expire or are adopted too.
func (p *Peer) sweepAndRefresh(st *StepStats) error {
	for id := range p.recs {
		if _, still := p.desired[id]; !still {
			p.goneSet[id] = true
		}
	}
	ghosts := p.w.AppendGhostIDs(p.goneBuf[:0])
	for _, id := range ghosts {
		if _, still := p.desired[id]; !still {
			p.goneSet[id] = true
		}
	}
	gone := ghosts[:0]
	for id := range p.goneSet {
		gone = append(gone, id)
	}
	slices.Sort(gone)
	p.goneBuf = gone
	clear(p.goneSet)
	for _, id := range gone {
		if p.w.IsGhost(id) {
			if err := p.w.Despawn(id); err != nil {
				return err
			}
		}
		p.dropRec(id)
	}

	ids := p.idBuf[:0]
	for id := range p.desired {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	p.idBuf = ids
	for _, id := range ids {
		cand := p.desired[id]
		rec, known := p.recs[id]
		// Self-heal: a script on this shard can despawn any mirror row
		// out from under its rec (scripts can despawn any id Nearby
		// returns); the mirror is derived state, so re-snapshot it.
		if known && !p.w.IsGhost(id) {
			p.dropRec(id)
			known = false
		}
		t, ok := p.w.Table(cand.table)
		if !ok {
			return fmt.Errorf("shard %d: mirror table %q missing", p.self, cand.table)
		}
		// The local schema is the remote schema: content loads
		// identically on every shard.
		si := specInfoFor(p.specInfos, p.specs, t)
		if !known {
			if p.w.IsGhost(id) {
				if err := p.w.Despawn(id); err != nil {
					return err
				}
			}
			if err := p.w.InsertRow(id, cand.table, cand.row); err != nil {
				return err
			}
			p.w.SetGhost(id, true)
			p.w.SetGhostRoute(id, cand.owner)
			if k := len(p.freeRecs); k > 0 {
				rec, p.freeRecs = p.freeRecs[k-1], p.freeRecs[:k-1]
			} else {
				rec = make(ghostRec, len(p.specs))
			}
			resetGhostRec(rec, si, cand.row, p.tick)
			p.recs[id] = rec
			st.GhostSnapshots++
			continue
		}
		// Refresh the owner route every barrier: handoff moves ownership,
		// and a snapshot Restore can leave a route stale.
		p.w.SetGhostRoute(id, cand.owner)
		for fi := range p.specs {
			sc := si.cols[fi]
			if !rec[fi].present || !sc.present || sc.ci >= len(cand.row) {
				continue
			}
			raw := cand.row[sc.ci]
			ship, skip := rec.shipField(p.specs[fi], p.tick, fi, sc.numeric, raw)
			if skip {
				st.GhostFieldSkips++
				continue
			}
			if !ship {
				continue
			}
			if err := p.w.SetMirror(id, p.specs[fi].Name, raw); err != nil {
				return err
			}
			rec.markShipped(fi, sc.numeric, raw, p.tick)
			st.GhostShips++
		}
	}
	return nil
}

// dropRec forgets id's mirror bookkeeping, keeping it for reuse.
func (p *Peer) dropRec(id entity.ID) {
	if rec, ok := p.recs[id]; ok {
		p.freeRecs = append(p.freeRecs, rec)
		delete(p.recs, id)
	}
}

// rerunForeign re-runs the invalidated border invocations this peer is
// responsible for: any whose source it now holds as a local, plus its
// own originals whose source despawned (the re-run aborts there with
// the same accounting as a local OCC re-run of a despawned entity). An
// invocation whose source migrated away this barrier re-runs at the new
// holder, never here.
func (p *Peer) rerunForeign(reruns []world.ForeignInvalidation) {
	if len(reruns) == 0 {
		return
	}
	t0 := time.Now()
	own := p.rerunOwn[:0]
	for _, r := range reruns {
		if _, ok := p.w.TableOf(r.Key.Src); ok && !p.w.IsGhost(r.Key.Src) {
			own = append(own, r)
			continue
		}
		if r.Key.Shard != p.self {
			continue
		}
		if _, migrated := p.migratedOut[r.Key.Src]; !migrated {
			own = append(own, r)
		}
	}
	p.rerunOwn = own
	p.w.RerunForeign(own)
	p.spans.Span(obs.SpanRemoteMerge, p.tick, -1, t0)
}

// Hash runs the lockstep hash gather: every peer ships its owned rows
// to peer 0, which digests the global sorted row set. Peer 0 returns
// the hash; everyone else returns zero. All peers must call Hash at the
// same lockstep point.
func (p *Peer) Hash() (uint64, error) {
	p.seq++
	rows := appendOwnedRows(p.w, nil)
	if p.self != 0 {
		p.enc.Reset()
		appendRowsPayload(&p.enc, rows)
		if err := p.tr.Send(0, frameRows, p.seq, p.enc.Bytes()); err != nil {
			return 0, p.fail(err)
		}
		return 0, nil
	}
	bufs, err := p.collectRound(frameRows)
	if err != nil {
		return 0, p.fail(err)
	}
	for src := 1; src < p.n; src++ {
		d := p.decReset(bufs[src])
		rows = decodeRowsPayload(d, rows)
		if err := d.Err(); err != nil {
			return 0, p.fail(fmt.Errorf("shard 0: rows frame from %d: %w", src, err))
		}
	}
	p.recycleRound(bufs)
	return hashRows(rows), nil
}

// WireStats returns the transport's cumulative traffic counters.
func (p *Peer) WireStats() wire.Stats { return p.tr.Stats() }

// Close closes the peer's transport endpoint.
func (p *Peer) Close() error { return p.tr.Close() }
