package world

import (
	"fmt"
	"math"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
	"gamedb/internal/obs"
	"gamedb/internal/spatial"
)

// This file hosts the world side of GSL execution. Behaviors and
// content-pack trigger rules run the same way: content.Compile lowers
// each entry point once per pack onto a gslplan plan shared by every
// world that loads the pack, the world binds it per worker slot
// (boundFn), and every invocation — query phase, trigger cond and act
// passes, both OCC re-run paths — runs that plan, whose outcome (value,
// error or fuel skip) is the invocation's. planEnv is the gslplan.Env
// that routes a plan's reads and effects through the frozen-state
// accessors and EffectBuffer entry points — read-set logging, effect
// records and the deterministic rand stream all live there.

// planEnv adapts one worker's (world, effect buffer) pair to gslplan.Env,
// including noteRead placement relative to errors and probes. With lane
// noLane it serves the invocation open on the buffer (begin … rollback),
// and its records land in the buffer directly; as the Env of batch lane p
// it serves that lane's invocation, and its records stage on the lane
// until the worker commits them in roster order (batch.go). It is also
// the buffer's gslplan.BatchEnv.
type planEnv struct {
	w    *World
	buf  *EffectBuffer
	lane int32
}

// noLane marks the planEnv of the invocation open on the buffer.
const noLane = -1

// inv is the invocation the Env serves.
func (e *planEnv) inv() *invoc {
	if e.lane == noLane {
		return &e.buf.cur
	}
	return &e.buf.lanes[e.lane].invoc
}

// noteRead logs one observed cell of the invocation; free when tracking
// is off.
func (e *planEnv) noteRead(id entity.ID, col string) {
	if !e.buf.trackReads {
		return
	}
	if e.lane == noLane {
		e.buf.reads = append(e.buf.reads, readCell{id: id, col: col})
		return
	}
	e.buf.stageRead(e.lane, readCell{id: id, col: col})
}

// push stamps a record with the invocation's (source, emission order) and
// buffers it.
func (e *planEnv) push(ef Effect) {
	v := e.inv()
	ef.Src, ef.Seq = v.src, v.seq
	v.seq++
	if e.lane == noLane {
		e.buf.effects = append(e.buf.effects, ef)
		return
	}
	e.buf.stageEffect(e.lane, ef)
}

func (e *planEnv) pushRec(ef Effect, err error) error {
	if err != nil {
		return err
	}
	e.push(ef)
	return nil
}

// Get reads x and y of a spatial entity off its grid slot — an
// index-only read: the grid holds every spatial row's float x and y bit
// for bit (checkDirectory), so it answers without the table's row and
// column lookups.
func (e *planEnv) Get(id entity.ID, col string) (entity.Value, error) {
	if col == "x" || col == "y" {
		if p, ok := e.inv().pos(e.w, id); ok {
			e.noteRead(id, col)
			if col == "x" {
				return entity.Float(p.X), nil
			}
			return entity.Float(p.Y), nil
		}
	}
	v, err := e.w.Get(id, col)
	if err != nil {
		return entity.Null(), err
	}
	e.noteRead(id, col)
	return v, nil
}

// AppendNearby logs the query center's position — the neighbor *set*
// itself is a predicate read the cell-level tracking deliberately
// approximates (spatial phantoms are out of the conflict policy's
// scope).
func (e *planEnv) AppendNearby(dst []entity.ID, id entity.ID, radius float64) []entity.ID {
	e.noteRead(id, "x")
	e.noteRead(id, "y")
	p, ok := e.inv().pos(e.w, id)
	if !ok {
		return dst
	}
	return e.w.appendNearbyAt(dst, id, p, radius)
}

func (e *planEnv) Dist(a, b entity.ID) float64 {
	v := e.inv()
	pa, okA := v.pos(e.w, a)
	pb, okB := v.pos(e.w, b)
	if okA {
		e.noteRead(a, "x")
		e.noteRead(a, "y")
	}
	if okB {
		e.noteRead(b, "x")
		e.noteRead(b, "y")
	}
	if !okA || !okB {
		return math.Inf(1)
	}
	return pa.Dist(pb)
}

func (e *planEnv) PosX(id entity.ID) (float64, error) {
	p, ok := e.inv().pos(e.w, id)
	if !ok {
		return 0, errNoPosition(id)
	}
	e.noteRead(id, "x")
	return p.X, nil
}

func (e *planEnv) PosY(id entity.ID) (float64, error) {
	p, ok := e.inv().pos(e.w, id)
	if !ok {
		return 0, errNoPosition(id)
	}
	e.noteRead(id, "y")
	return p.Y, nil
}

func (e *planEnv) Tick() int64 { return e.w.tick }

func (e *planEnv) RandFloat() float64 { return e.inv().rand() }

func (e *planEnv) EmitSet(id entity.ID, col string, v entity.Value) error {
	return e.pushRec(e.buf.setRec(e.inv(), id, col, v))
}

func (e *planEnv) EmitAdd(id entity.ID, col string, delta entity.Value) error {
	return e.pushRec(e.buf.addRec(e.inv(), id, col, delta))
}

// EmitPost buffers an event post. Like direct-mode Post it accepts any id
// without validation: the trigger engine fields events for departed
// entities.
func (e *planEnv) EmitPost(name string, id entity.ID, amount entity.Value) {
	e.push(Effect{Kind: EffectPost, Target: id, Name: name, Val: amount})
}

// MoveToward steps from the entity's frozen position — a
// read-modify-write on its x/y cells.
func (e *planEnv) MoveToward(id entity.ID, tx, ty, step float64) error {
	p, ok := e.inv().pos(e.w, id)
	if !ok {
		return errNoPosition(id)
	}
	np := stepToward(p, tx, ty, step)
	e.noteRead(id, "x")
	e.noteRead(id, "y")
	if err := e.pushRec(e.buf.setRec(e.inv(), id, "x", entity.Float(np.X))); err != nil {
		return err
	}
	return e.pushRec(e.buf.setRec(e.inv(), id, "y", entity.Float(np.Y)))
}

func (e *planEnv) EmitSpawn(archetype string, x, y float64) (entity.ID, error) {
	ef, err := e.buf.spawnRec(e.inv(), archetype, spatial.Vec2{X: x, Y: y})
	if err != nil {
		return 0, err
	}
	e.push(ef)
	return ef.Target, nil
}

func (e *planEnv) EmitDespawn(id entity.ID) error { return e.pushRec(e.buf.despawnRec(e.inv(), id)) }

// stepToward is move_toward's geometry: p moved up to step toward
// (tx, ty), landing on the target when it is within reach.
func stepToward(p spatial.Vec2, tx, ty, step float64) spatial.Vec2 {
	to := spatial.Vec2{X: tx, Y: ty}.Sub(p)
	d := to.Len()
	if d <= step {
		return spatial.Vec2{X: tx, Y: ty}
	}
	return p.Add(to.Scale(step / d))
}

func errNoPosition(id entity.ID) error {
	return fmt.Errorf("world: entity %d has no position", id)
}

// boundFn is one GSL entry point as the tick executes it — a behavior's
// on_tick, or one side (condition or action) of a content-pack rule:
// the plan the content pack compiled (shared by every world that loaded
// the pack) and its per-worker-slot bindings. Slot wi's plan emits into
// workerBufs[wi], so it may only ever run on worker slot wi.
type boundFn struct {
	plan  *gslplan.Program
	plans []*gslplan.Plan
}

// grow binds the plan for worker slots up to n. Runs on the
// coordinating goroutine before any fan-out; the worker buffers must
// already exist (ensureWorkers).
func (f *boundFn) grow(w *World, n int) {
	for len(f.plans) < n {
		f.plans = append(f.plans, f.plan.Bind(&w.workerBufs[len(f.plans)].env))
	}
}

// run executes f once on worker slot wi, inside the invocation the
// caller opened with workerBufs[wi].begin, and returns the value, the
// fuel burned and the outcome: nil, an error wrapping gslplan.ErrFuel
// (a skip), or any other error. On an error the caller rolls the
// invocation back.
func (f *boundFn) run(w *World, wi int, args ...entity.Value) (entity.Value, int64, error) {
	return f.plans[wi].Run(w.cfg.ScriptFuel, args...)
}

// boundBehavior is a content-pack behavior script as the query phase
// runs it: its on_tick plus its profile row, resolved by Step before the
// fan-out (nil with profiling off; every use is nil-safe).
type boundBehavior struct {
	fn   boundFn
	prof *obs.ProfEntry
}

// rerunBehavior re-executes entity src's behavior on worker slot 0 for
// the OCC conflict policy, inside the invocation the caller opened with
// workerBufs[0].begin(src). An entity that lost its behavior mid-apply —
// despawned by the round just applied — cannot re-run and aborts.
func (w *World) rerunBehavior(src entity.ID) (int64, error) {
	rec := w.dir.find(src)
	if rec == nil || rec.script == "" {
		return 0, fmt.Errorf("world: entity %d no longer runs a behavior", src)
	}
	b := rec.beh
	if b == nil {
		return 0, nil
	}
	w.workerBufs[0].seedSelf(rec)
	b.fn.grow(w, 1)
	_, fuel, err := b.fn.run(w, 0, entity.Int(int64(src)))
	return fuel, err
}

// PlanFor returns the Explain text of a loaded script's on_tick plan; ok
// is false when no loaded script of that name has an on_tick.
// "trigger/<rule>" (the rule's profile-entry name) reports a content
// pack rule instead: the plans of its <when> (if any) and <do>.
func (w *World) PlanFor(name string) (explain string, ok bool) {
	if rule, isRule := strings.CutPrefix(name, "trigger/"); isRule {
		for _, bt := range w.trigList {
			if bt.name == rule {
				return bt.src.ExplainPlans(), true
			}
		}
		return "", false
	}
	b := w.scripts[name]
	if b == nil {
		return "", false
	}
	return b.fn.plan.Explain(), true
}
