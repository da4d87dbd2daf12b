package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// Peer is one shard of a wire-connected grid: it owns exactly one
// world and talks to every other shard through frames on a
// wire.Transport, so the grid can live in one process (pipe transport,
// see Cluster), across processes, or across hosts (TCP) — with
// bit-identical results to the in-process Runtime on the same seed.
//
// The design is a lockstep replicated coordinator: there is no central
// barrier process. Every coordination decision — who rebalances where,
// which invocations re-run, which mirrors refresh — is a pure function
// of the peer's own state plus the frames every peer exchanges each
// barrier, evaluated identically everywhere. Ghost-ship policy runs at
// the RECEIVER: barrier frames carry each border candidate's full row,
// and the mirror host evaluates ship policy against its own
// last-shipped bookkeeping — the same decision the in-process
// coordinator makes, relocated to where the bookkeeping lives, so no
// per-mirror state ever has to migrate.
//
// The peer always runs the full-scan-equivalent ghost refresh; the
// feed-equivalence tests pin full-scan ≡ incremental ship sequences, so
// its hashes match the in-process runtime's.
type Peer struct {
	cfg   Config
	self  int
	n     int
	part  *Partitioner
	w     *world.World
	tr    wire.Transport
	rng   *rand.Rand // replicated coordinator rng: every peer replays the same stream
	specs []replica.FieldSpec
	spans *obs.SpanCtx

	nextID entity.ID
	tick   int64 // game tick, drives ship-policy timestamps exactly like Runtime.tick
	seq    int64 // barrier sequence, stamps frames (Sync counts too, game ticks don't reset it)

	recs      map[entity.ID]*ghostRec
	specInfos map[*entity.Table]*tableSpecInfo

	// Frame reorder buffer: a fast peer can send its next barrier's
	// frames before this one finished the current round, so Recv results
	// that don't match the round being collected park here.
	pend     []wire.Frame
	roundBuf [][]byte
	roundGot []bool

	// Outbound barrier staging: per-destination migration/candidate
	// lists with row copies in one shared value arena (index ranges stay
	// valid across arena growth), encoded and sent by the pipeline
	// goroutine while the main thread applies the barrier locally.
	outMigs  [][]stagedMig
	outCands [][]stagedCand
	arena    []entity.Value
	pipeEnc  wire.Enc
	sendDone chan error

	// Inbound barrier scratch, reused across barriers.
	inMigs      []inMig
	inCands     []inCand
	rowDecBuf   []entity.Value
	desired     map[entity.ID]inCand
	migratedOut map[entity.ID]struct{}
	outIDs      []entity.ID
	idsBuf      []entity.ID
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

	lastWire wire.Stats
}

// NewPeer builds shard `self` of an n-shard wire grid. cfg is the SAME
// config every peer receives (and the one an equivalent in-process
// Runtime would receive); tr is this peer's endpoint of an n-way mesh.
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
	// The peer's refresh is receiver-evaluated full scan; it never
	// consumes change feeds, so they record only when the host asks.
	w := newShardWorld(cfg, self, n, pool, cfg.ChangeFeed)
	p := &Peer{
		cfg:         cfg,
		self:        self,
		n:           n,
		part:        part,
		w:           w,
		tr:          tr,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		specs:       cfg.GhostFields,
		spans:       cfg.Tracer.Context(self),
		recs:        make(map[entity.ID]*ghostRec),
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
	return p, nil
}

// Self returns this peer's shard index; N the grid size.
func (p *Peer) Self() int { return p.self }

// N returns the grid size.
func (p *Peer) N() int { return p.n }

// World exposes the peer's world for inspection.
func (p *Peer) World() *world.World { return p.w }

// Tick returns the barrier tick counter.
func (p *Peer) Tick() int64 { return p.tick }

// Spawn replays one coordinator spawn: every peer advances the shared
// id stream, and only the shard owning pos materializes the row. The
// full stream replays on every peer, which is what keeps ids identical
// to the in-process coordinator without any id-allocation traffic.
func (p *Peer) Spawn(archetype string, pos spatial.Vec2) (entity.ID, error) {
	p.nextID++
	id := p.nextID
	if p.part.Locate(pos) == p.self {
		if err := p.w.SpawnAt(id, archetype, pos); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// SpawnRaw replays one coordinator raw spawn (see Runtime.SpawnRaw).
func (p *Peer) SpawnRaw(table string, vals map[string]entity.Value) (entity.ID, error) {
	si := 0
	if x, okX := vals["x"].AsFloat(); okX {
		if y, okY := vals["y"].AsFloat(); okY {
			si = p.part.Locate(spatial.Vec2{X: x, Y: y})
		}
	}
	p.nextID++
	id := p.nextID
	if si == p.self {
		if err := p.w.SpawnRawAt(id, table, vals); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// Set writes a column when this peer holds the entity; elsewhere it is
// a no-op (the holding peer replays the same call on the same stream).
func (p *Peer) Set(id entity.ID, col string, v entity.Value) error {
	if _, ok := p.w.TableOf(id); ok && !p.w.IsGhost(id) {
		return p.w.Set(id, col, v)
	}
	return nil
}

// LoadPack loads a compiled content pack and replays its spawn stream
// through the replicated coordinator rng, exactly like Runtime.LoadPack.
func (p *Peer) LoadPack(c *content.Compiled) error {
	if err := p.w.LoadContent(c); err != nil {
		return err
	}
	return world.ForEachSpawn(c, p.rng, func(archetype string, pos spatial.Vec2) error {
		_, err := p.Spawn(archetype, pos)
		return err
	})
}

// fail tears the mesh down so peers blocked on Recv error out instead
// of deadlocking when this peer aborts a barrier.
func (p *Peer) fail(err error) error {
	p.tr.Close()
	return err
}

// Step advances the peer one tick in lockstep with the rest of the
// grid: the local world steps, then the barrier rounds run — effects
// (A), verdicts (B, gated on the global forwarded count), counts (on
// rebalance ticks), and the handoff/ghost round (C) with its pipelined
// outbound encode — mirroring the in-process barrier phase for phase.
func (p *Peer) Step() (StepStats, error) {
	p.tick++
	p.seq++
	st := StepStats{Tick: p.tick}
	w0 := p.tr.Stats()

	t0 := time.Now()
	st.Shards = []world.TickStats{{}}
	var err error
	st.Shards[0], err = p.w.Step()
	st.ParallelNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return st, p.fail(fmt.Errorf("shard %d: %w", p.self, err))
	}

	t1 := time.Now()
	if err := p.barrier(&st, true); err != nil {
		return st, p.fail(err)
	}
	st.BarrierNS = time.Since(t1).Nanoseconds()

	st.Entities = p.w.LocalEntities()
	st.Ghosts = p.w.GhostCount()
	w1 := p.tr.Stats()
	st.WireBytesOut = w1.BytesOut - w0.BytesOut
	st.WireBytesIn = w1.BytesIn - w0.BytesIn
	st.WireFrames = (w1.FramesOut - w0.FramesOut) + (w1.FramesIn - w0.FramesIn)
	p.lastWire = w1
	return st, nil
}

// Sync runs the barrier without stepping — the initial ghost
// materialization after seeding, in lockstep (every peer must call it
// at the same point).
func (p *Peer) Sync() error {
	p.seq++
	if err := p.barrier(nil, false); err != nil {
		return p.fail(err)
	}
	return nil
}

// barrier runs rounds A/B/counts/C of one tick barrier. st is nil from
// Sync; rebalance only runs on stepped ticks.
func (p *Peer) barrier(st *StepStats, stepped bool) error {
	reruns, err := p.roundEffects(st)
	if err != nil {
		return err
	}
	if stepped && p.cfg.RebalanceEvery > 0 && p.tick%p.cfg.RebalanceEvery == 0 {
		if err := p.roundCounts(); err != nil {
			return err
		}
	}
	if err := p.roundBarrier(st, reruns); err != nil {
		return err
	}
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
// and commit the exchange merge, mirroring Runtime.exchangeEffects.
func (p *Peer) roundEffects(st *StepStats) ([]world.ForeignInvalidation, error) {
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
	// Queue inbound batches in ascending source order — the order the
	// in-process exchange delivers them.
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
	if st != nil {
		st.EffectsForwarded = own
	}
	if global == 0 {
		return nil, nil
	}

	// Round B: every peer validates the invocations it owns and shares
	// the verdicts; the union — deduped in source order, exactly the
	// in-process iteration — drives both the exchange merge and the
	// re-runs.
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
	merged := p.w.ExchangeApply(invalid)
	if st != nil {
		st.EffectsRemoteMerged = merged
		if p.self == 0 {
			// Global tallies report once (peer 0), so summing per-peer
			// stats across the grid matches the in-process StepStats.
			st.RemoteInvalidations = len(reruns)
		}
	}
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
	return nil
}

// roundBarrier is phase C: stage outbound migrations and full-row ghost
// candidates from one walk over the owned rows, launch the pipelined
// encode+send, and — while those frames are on the wire — collect the
// inbound round, apply migrations in ascending id order, sweep expired
// mirrors and refresh the rest, then re-run invalidated border
// invocations this peer owns.
func (p *Peer) roundBarrier(st *StepStats, reruns []world.ForeignInvalidation) error {
	tRec := time.Now()
	p.arena = p.arena[:0]
	for i := 0; i < p.n; i++ {
		p.outMigs[i] = p.outMigs[i][:0]
		p.outCands[i] = p.outCands[i][:0]
	}
	clear(p.migratedOut)
	p.outIDs = p.outIDs[:0]
	band := newGhostBand(p.cfg.GhostBand, p.part)
	for _, name := range p.w.TableNames() {
		t, _ := p.w.Table(name)
		for _, id := range t.IDs() {
			if p.w.IsGhost(id) {
				continue
			}
			pos, ok := p.w.Pos(id)
			if !ok {
				continue
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
			if !band.on {
				continue
			}
			for di := 0; di < p.n; di++ {
				if band.mirrors(di, owner, pos) {
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

	// Pipelined exchange: encode+send overlaps the inbound wait and the
	// local barrier apply below (the staged copies are immutable now, so
	// the sender races nothing). The wire span this records lands inside
	// the reconcile window, not after it.
	tWire := time.Now()
	go func() {
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
		p.spans.Span(obs.SpanWire, p.tick, -1, tWire)
		p.sendDone <- err
	}()
	joinSend := func() error { return <-p.sendDone }

	bufs, err := p.collectRound(frameBarrier)
	if err != nil {
		joinSend()
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
		p.inMigs, p.inCands, p.rowDecBuf = decodeBarrierPayload(d, src, p.inMigs, p.inCands, p.rowDecBuf)
		if err := d.Err(); err != nil {
			joinSend()
			return fmt.Errorf("shard %d: barrier frame from %d: %w", p.self, src, err)
		}
	}
	p.recycleRound(bufs)

	// Apply migrations in ascending id order — inbound inserts and
	// outbound despawns interleaved exactly as the in-process global
	// handoff interleaves them on this shard's world.
	sort.Slice(p.inMigs, func(i, j int) bool { return p.inMigs[i].id < p.inMigs[j].id })
	slices.Sort(p.outIDs)
	in, outI := 0, 0
	for in < len(p.inMigs) || outI < len(p.outIDs) {
		if outI >= len(p.outIDs) || (in < len(p.inMigs) && p.inMigs[in].id < p.outIDs[outI]) {
			m := &p.inMigs[in]
			in++
			if p.w.IsGhost(m.id) {
				if err := p.w.Despawn(m.id); err != nil {
					joinSend()
					return err
				}
				delete(p.recs, m.id)
			}
			if err := p.w.InsertRow(m.id, m.table, m.row); err != nil {
				joinSend()
				return err
			}
			if m.behavior != "" {
				p.w.SetBehavior(m.id, m.behavior)
			}
			continue
		}
		if err := p.w.Despawn(p.outIDs[outI]); err != nil {
			joinSend()
			return err
		}
		outI++
	}
	if st != nil {
		st.Handoffs = len(p.inMigs)
	}
	// The peer's refresh is receiver-evaluated (it never consumes change
	// feeds), but an externally-enabled feed still needs its window
	// sealed once per barrier — same point in the tick the in-process
	// runtime rotates — or it grows without bound.
	if p.w.FeedEnabled() {
		p.w.RotateFeed()
	}

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

	var rst recStats
	if err := p.sweepAndRefresh(&rst); err != nil {
		joinSend()
		return err
	}
	if st != nil {
		st.GhostShips, st.GhostSnapshots, st.GhostFieldSkips = rst.ships, rst.snaps, rst.skips
		st.ReconcileNS = time.Since(tRec).Nanoseconds()
	}
	p.spans.Span(obs.SpanReconcile, p.tick, -1, tRec)

	p.rerunForeign(reruns)
	return joinSend()
}

// sweepAndRefresh expires mirrors that left the band, then refreshes
// the desired set in ascending id order — snapshot new mirrors from
// their candidate rows, re-ship drifted fields per the replica specs —
// the receiver-side twin of Runtime.sweepGone + refreshFull.
func (p *Peer) sweepAndRefresh(st *recStats) error {
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
		delete(p.recs, id)
	}

	ids := p.idsBuf[:0]
	for id := range p.desired {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	p.idsBuf = ids
	for _, id := range ids {
		cand := p.desired[id]
		rec, known := p.recs[id]
		// Self-heal: a script on this shard can despawn any mirror row
		// out from under its rec.
		if known && !p.w.IsGhost(id) {
			delete(p.recs, id)
			known = false
		}
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
			t, ok := p.w.Table(cand.table)
			if !ok {
				return fmt.Errorf("shard %d: mirror table %q missing", p.self, cand.table)
			}
			rec = newGhostRecFor(p.specs, specInfoFor(p.specInfos, p.specs, t), cand.row, p.tick)
			rec.route = replica.Route{Owner: cand.owner}
			p.w.SetGhostRoute(id, cand.owner)
			p.recs[id] = rec
			st.snaps++
			continue
		}
		rec.route = replica.Route{Owner: cand.owner}
		p.w.SetGhostRoute(id, cand.owner)
		t, ok := p.w.Table(cand.table)
		if !ok {
			continue
		}
		// The local schema is the remote schema: content loads
		// identically on every shard, so spec resolution against the
		// local table mirrors the in-process owner-side resolution.
		si := specInfoFor(p.specInfos, p.specs, t)
		for fi := range p.specs {
			sc := si.cols[fi]
			if !rec.present[fi] || !sc.present || sc.ci >= len(cand.row) {
				continue
			}
			raw := cand.row[sc.ci]
			ship, _, hasDue, skip := fieldShipEval(p.specs[fi], p.tick, fi, sc.numeric, rec, raw)
			if skip {
				st.skips++
				continue
			}
			if hasDue || !ship {
				continue
			}
			if err := p.w.Set(id, p.specs[fi].Name, raw); err != nil {
				return err
			}
			markShippedRec(rec, fi, sc.numeric, raw, p.tick)
			st.ships++
		}
	}
	return nil
}

// rerunForeign re-runs the invalidated border invocations this peer is
// responsible for: any whose source it now holds as a local, plus its
// own originals whose source despawned (the re-run aborts there with
// the same accounting as in-process). An invocation whose source
// migrated away this barrier re-runs at the new holder, never here.
func (p *Peer) rerunForeign(reruns []world.ForeignInvalidation) {
	if len(reruns) == 0 {
		return
	}
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
}

// Hash runs the lockstep hash gather: every peer ships its owned rows
// to peer 0, which digests the global sorted row set with the exact
// in-process algorithm. Peer 0 returns the hash; everyone else returns
// zero. All peers must call Hash at the same lockstep point.
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
