package world

import (
	"slices"
	"time"

	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
)

// The query phase runs behaviors set-at-a-time. A worker groups its
// roster chunk by behavior and runs each group's plan once with
// gslplan.Plan.RunBatch, one lane per entity. A lane's reads and effects
// stage on the lane, stamped with the (source, order) its scalar run would
// give them.
// The worker then walks its chunk in roster order: an entity whose lane
// completed commits its staged reads and effects as its invocation, and
// any other — an error, a fuel skip, a per-entity program — drops what it
// staged and runs on the scalar plan, which alone decides its outcome.
// Either way the buffer ends up holding exactly what one scalar run per
// entity in roster order would have put there, so the apply phase, the
// OCC read-sets and the profile rows cannot tell the difference.

// batchLane is one roster entity's invocation in its worker's batched
// behavior run: its emission state and the chains of records it staged
// (indices into the buffer's staging arrays, -1 when empty).
type batchLane struct {
	invoc
	effHead, effTail   int32
	readHead, readTail int32
	// fuel and ok are the lane's RunBatch result.
	fuel int64
	ok   bool
}

// behaviorGroup is the lanes of a worker's chunk that run one behavior:
// their chunk positions and subjects, ascending.
type behaviorGroup struct {
	beh  *boundBehavior
	pos  []int32
	subj []entity.ID
}

// batchState is an EffectBuffer's batched-run scratch, reused tick to
// tick: one lane and one lane Env per chunk position, the staged
// records and the groups.
type batchState struct {
	lanes    []batchLane
	laneEnvs []planEnv
	// lanePos maps the lanes of the group in flight to chunk positions.
	lanePos []int32

	stEffects  []Effect
	stEffNext  []int32
	stReads    []readCell
	stReadNext []int32

	groups []behaviorGroup
}

// stageEffect appends ef to lane p's chain.
func (b *EffectBuffer) stageEffect(p int32, ef Effect) {
	i := int32(len(b.stEffects))
	b.stEffects = append(b.stEffects, ef)
	b.stEffNext = append(b.stEffNext, -1)
	ln := &b.lanes[p]
	if ln.effTail < 0 {
		ln.effHead = i
	} else {
		b.stEffNext[ln.effTail] = i
	}
	ln.effTail = i
}

// stageRead appends c to lane p's read chain.
func (b *EffectBuffer) stageRead(p int32, c readCell) {
	i := int32(len(b.stReads))
	b.stReads = append(b.stReads, c)
	b.stReadNext = append(b.stReadNext, -1)
	ln := &b.lanes[p]
	if ln.readTail < 0 {
		ln.readHead = i
	} else {
		b.stReadNext[ln.readTail] = i
	}
	ln.readTail = i
}

// commitLane appends lane p's staged reads and effects, in staging order,
// to the invocation the caller just opened for it.
func (b *EffectBuffer) commitLane(p int32) {
	ln := &b.lanes[p]
	for i := ln.readHead; i >= 0; i = b.stReadNext[i] {
		b.reads = append(b.reads, b.stReads[i])
	}
	for i := ln.effHead; i >= 0; i = b.stEffNext[i] {
		b.effects = append(b.effects, b.stEffects[i])
	}
}

// Lane is the Env of lane l of the group in flight.
func (e *planEnv) Lane(l int) gslplan.Env {
	return &e.buf.laneEnvs[e.buf.lanePos[l]]
}

// runBehaviors runs worker wi's roster chunk: the batched runs, then the
// commit walk in roster order.
func (w *World) runBehaviors(wi int, buf *EffectBuffer, ws *workerStats, chunk []ownRef) {
	n := len(chunk)
	buf.lanes = slices.Grow(buf.lanes[:0], n)[:n]
	for p := len(buf.laneEnvs); p < n; p++ {
		buf.laneEnvs = append(buf.laneEnvs, planEnv{w: w, buf: buf, lane: int32(p)})
	}
	buf.stEffects, buf.stEffNext = buf.stEffects[:0], buf.stEffNext[:0]
	buf.stReads, buf.stReadNext = buf.stReads[:0], buf.stReadNext[:0]

	groups := buf.groups[:0]
	var g *behaviorGroup
	base := w.rngBase()
	for p, o := range chunk {
		rec := &w.dir.recs[o.rec]
		if g == nil || g.beh != rec.beh {
			g = nil
			for k := range groups {
				if groups[k].beh == rec.beh {
					g = &groups[k]
					break
				}
			}
			if g == nil {
				if len(groups) < cap(groups) {
					groups = groups[:len(groups)+1]
				} else {
					groups = append(groups, behaviorGroup{})
				}
				g = &groups[len(groups)-1]
				g.beh, g.pos, g.subj = rec.beh, g.pos[:0], g.subj[:0]
			}
		}
		g.pos = append(g.pos, int32(p))
		g.subj = append(g.subj, o.id)
		v := w.tickInvoc(base, o.id)
		v.slot, v.tab, v.self = rec.slot, rec.tab, true
		buf.lanes[p] = batchLane{invoc: v, effHead: -1, effTail: -1, readHead: -1, readTail: -1}
	}
	buf.groups = groups

	for k := range groups {
		g := &groups[k]
		if !g.beh.fn.plan.SetAtATime() {
			continue // every lane stays not OK: all of them run scalar
		}
		buf.lanePos = g.pos
		pe := g.beh.prof
		var t0 time.Time
		if pe != nil {
			t0 = time.Now()
		}
		res := g.beh.fn.plans[wi].RunBatch(w.cfg.ScriptFuel, g.subj)
		var ns int64
		if pe != nil {
			ns = time.Since(t0).Nanoseconds()
		}
		ok := int64(0)
		for l, p := range g.pos {
			buf.lanes[p].fuel, buf.lanes[p].ok = res[l].Fuel, res[l].OK
			if res[l].OK {
				ok++
			}
		}
		// Only the OK lanes are timed here: the rest re-run on the scalar
		// plan, whose own sampling may time them.
		pe.AddSamples(ok, ns)
	}

	for p, o := range chunk {
		rec := &w.dir.recs[o.rec]
		b := rec.beh
		pe := b.prof
		ws.calls++
		if ln := &buf.lanes[p]; ln.ok {
			ws.fuel += ln.fuel
			if !buf.trackReads && ln.effHead < 0 {
				// Nothing to commit, and without read-sets no invocation
				// record either.
				pe.AddCall(ln.fuel, 0, 0)
				continue
			}
			reads0 := len(buf.reads)
			mark := buf.begin(o.id)
			buf.commitLane(int32(p))
			pe.AddCall(ln.fuel, int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
			continue
		}
		reads0 := len(buf.reads)
		mark := buf.begin(o.id)
		ws.fallbacks++
		buf.seedSelf(rec)
		start, sampling := pe.BeginSample()
		_, fuel, err := b.fn.run(w, wi, entity.Int(int64(o.id)))
		pe.EndSample(start, sampling)
		ws.fuel += fuel
		if err != nil {
			buf.rollback(mark)
			if isFuelErr(err) {
				ws.skips++
				pe.AddSkip()
			} else {
				ws.errors++
				pe.AddError()
				if ws.firstErr == nil {
					ws.firstErr, ws.errID = err, o.id
				}
			}
		}
		// Counted after rollback handling: an errored invocation is
		// atomic and contributed no effects or reads.
		pe.AddCall(fuel, int64(len(buf.effects)-mark), int64(len(buf.reads)-reads0))
	}
}
