package world

import (
	"slices"
	"time"

	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
	"gamedb/internal/obs"
)

// Behaviors and trigger rules run set-at-a-time, through one driver,
// runLanes. A worker groups its chunk — its roster slice in the query
// phase, its share of a cascade round's matches or fires in the trigger
// phase — by the plan each position runs, and runs each group's plan once
// with gslplan.Plan.RunBatch, one lane per position; a rule side takes
// its events' amounts as a second argument column. A lane's reads and
// effects stage on the lane, stamped with the (source, order) its scalar
// run would give them.
// The worker then walks its chunk in order: a position whose lane
// completed commits its staged reads and effects as its invocation (a
// condition commits nothing: conditions are queries), and any other — an
// error, a fuel skip, a per-entity program — drops what it staged and
// runs on the scalar plan, which alone decides its outcome. Either way the
// buffer ends up holding exactly what one scalar run per position in
// chunk order would have put there, so the apply phase, the OCC read-sets
// and the profile rows cannot tell the difference.

// batchLane is one chunk position's invocation in its worker's batched
// run: its emission state and the chains of records it staged (indices
// into the buffer's staging arrays, -1 when empty).
type batchLane struct {
	invoc
	effHead, effTail   int32
	readHead, readTail int32
	// val, fuel and ok are the lane's RunBatch result.
	val  entity.Value
	fuel int64
	ok   bool
}

// laneSpec is what one chunk position runs in a batched run: the plan
// (nil when the position runs nothing in this batch) and its profile
// entry, the subject, and a rule side's amount (nil for a behavior).
type laneSpec struct {
	fn     *boundFn
	prof   *obs.ProfEntry
	subj   entity.ID
	amount *entity.Value
}

// laneGroup is the lanes of a worker's chunk that run one plan: their
// chunk positions, subjects and — for a rule side — amounts, ascending.
type laneGroup struct {
	fn   *boundFn
	prof *obs.ProfEntry
	rule bool
	pos  []int32
	subj []entity.ID
	amt  []entity.Value
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

	groups []laneGroup
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

// runLanes runs n chunk positions on worker slot wi set-at-a-time: open
// sets position p's invocation — the one its scalar run would open — and
// describes what it runs, the positions that run one plan form a group,
// and each set-at-a-time group runs once through RunBatch, a rule side
// with its amounts as the second argument column. Position p's result
// lands on buf.lanes[p]; a lane that is not OK (a per-entity group's
// never is) staged nothing the caller may commit.
func (w *World) runLanes(wi int, buf *EffectBuffer, n int, open func(p int, v *invoc) laneSpec) {
	buf.lanes = slices.Grow(buf.lanes[:0], n)[:n]
	for p := len(buf.laneEnvs); p < n; p++ {
		buf.laneEnvs = append(buf.laneEnvs, planEnv{w: w, buf: buf, lane: int32(p)})
	}
	buf.stEffects, buf.stEffNext = buf.stEffects[:0], buf.stEffNext[:0]
	buf.stReads, buf.stReadNext = buf.stReads[:0], buf.stReadNext[:0]
	// The lanes of one batch never share a source, so the emission memo
	// holds across them; a round's act batch may re-use the provisional
	// ids its cond batch spawned, so it starts without one.
	buf.memoOK = false

	groups := buf.groups[:0]
	var g *laneGroup
	for p := 0; p < n; p++ {
		ln := &buf.lanes[p]
		ln.effHead, ln.effTail, ln.readHead, ln.readTail, ln.ok = -1, -1, -1, -1, false
		s := open(p, &ln.invoc)
		if s.fn == nil {
			continue
		}
		if g == nil || g.fn != s.fn {
			g = nil
			for k := range groups {
				if groups[k].fn == s.fn {
					g = &groups[k]
					break
				}
			}
			if g == nil {
				if len(groups) < cap(groups) {
					groups = groups[:len(groups)+1]
				} else {
					groups = append(groups, laneGroup{})
				}
				g = &groups[len(groups)-1]
				g.fn, g.prof, g.rule = s.fn, s.prof, s.amount != nil
				g.pos, g.subj, g.amt = g.pos[:0], g.subj[:0], g.amt[:0]
			}
		}
		g.pos = append(g.pos, int32(p))
		g.subj = append(g.subj, s.subj)
		if g.rule {
			g.amt = append(g.amt, *s.amount)
		}
	}
	buf.groups = groups

	for k := range groups {
		g := &groups[k]
		if !g.fn.plan.SetAtATime() {
			continue // every lane stays not OK: all of them run scalar
		}
		buf.lanePos = g.pos
		var t0 time.Time
		if g.prof != nil {
			t0 = time.Now()
		}
		plan := g.fn.plans[wi]
		var res []gslplan.LaneResult
		if g.rule {
			res = plan.RunBatch(w.cfg.ScriptFuel, g.subj, g.amt)
		} else {
			res = plan.RunBatch(w.cfg.ScriptFuel, g.subj)
		}
		var ns int64
		if g.prof != nil {
			ns = time.Since(t0).Nanoseconds()
		}
		ok := int64(0)
		for l, p := range g.pos {
			ln := &buf.lanes[p]
			ln.val, ln.fuel, ln.ok = res[l].Val, res[l].Fuel, res[l].OK
			if res[l].OK {
				ok++
			}
		}
		// Only the OK lanes are timed here: the rest re-run on the scalar
		// plan, whose own sampling may time them.
		g.prof.AddSamples(ok, ns)
	}
}

// runBehaviors runs worker wi's roster chunk: the batched runs, then the
// commit walk in roster order.
func (w *World) runBehaviors(wi int, buf *EffectBuffer, ws *workerStats, chunk []ownRef) {
	base := w.rngBase()
	w.runLanes(wi, buf, len(chunk), func(p int, v *invoc) laneSpec {
		o := chunk[p]
		rec := &w.dir.recs[o.rec]
		*v = w.tickInvoc(base, o.id)
		v.slot, v.tab, v.self = rec.slot, rec.tab, true
		return laneSpec{fn: &rec.beh.fn, prof: rec.beh.prof, subj: o.id}
	})

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
