package world

import (
	"fmt"
	"math"
	"strings"

	"gamedb/internal/content"
	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
	"gamedb/internal/obs"
	"gamedb/internal/script"
)

// This file hosts the world side of GSL execution. Behaviors and
// content-pack trigger rules run the same way: content.Compile lowers
// each entry point once per pack onto a gslplan query plan shared by
// every world that loads the pack, the world binds it per worker slot
// (boundFn), and every invocation — query phase, trigger cond and act
// passes, both OCC re-run paths — goes through invoke: plan first, the
// interpreter authoritative on any plan error. planEnv is the
// gslplan.Env that routes a plan's reads and effects through the same
// frozen-state accessors and EffectBuffer entry points the effect-mode
// builtins use — same read-set logging, same effect records, same
// deterministic rand stream.

// planEnv adapts one worker's (world, effect buffer) pair to
// gslplan.Env. Each method mirrors the corresponding effect-mode
// builtin in builtins.go exactly, including noteRead placement relative
// to errors and probes.
type planEnv struct {
	w   *World
	buf *EffectBuffer
}

func (e planEnv) Get(id entity.ID, col string) (entity.Value, error) {
	v, err := e.w.Get(id, col)
	if err != nil {
		return entity.Null(), err
	}
	e.buf.noteRead(id, col)
	return v, nil
}

func (e planEnv) AppendNearby(dst []entity.ID, id entity.ID, radius float64) []entity.ID {
	e.buf.noteRead(id, "x")
	e.buf.noteRead(id, "y")
	p, ok := e.buf.pos(id)
	if !ok {
		return dst
	}
	return e.w.appendNearbyAt(dst, id, p, radius)
}

func (e planEnv) Dist(a, b entity.ID) float64 {
	pa, okA := e.buf.pos(a)
	pb, okB := e.buf.pos(b)
	if okA {
		e.buf.noteRead(a, "x")
		e.buf.noteRead(a, "y")
	}
	if okB {
		e.buf.noteRead(b, "x")
		e.buf.noteRead(b, "y")
	}
	if !okA || !okB {
		return math.Inf(1)
	}
	return pa.Dist(pb)
}

func (e planEnv) PosX(id entity.ID) (float64, error) {
	p, ok := e.buf.pos(id)
	if !ok {
		return 0, errNoPosition(id)
	}
	e.buf.noteRead(id, "x")
	return p.X, nil
}

func (e planEnv) PosY(id entity.ID) (float64, error) {
	p, ok := e.buf.pos(id)
	if !ok {
		return 0, errNoPosition(id)
	}
	e.buf.noteRead(id, "y")
	return p.Y, nil
}

func (e planEnv) Tick() int64 { return e.w.tick }

func (e planEnv) RandFloat() float64 { return e.buf.randFloat() }

func (e planEnv) EmitSet(id entity.ID, col string, v entity.Value) error {
	return e.buf.emitSet(id, col, v)
}

func (e planEnv) EmitAdd(id entity.ID, col string, delta entity.Value) error {
	return e.buf.emitAdd(id, col, delta)
}

func (e planEnv) EmitPost(name string, id entity.ID, amount entity.Value) {
	e.buf.emitPost(name, id, amount)
}

func (e planEnv) MoveToward(id entity.ID, tx, ty, step float64) error {
	// Argument coercion already happened in the plan; replicate
	// moveTowardStep's geometry and error order from here on.
	p, ok := e.buf.pos(id)
	if !ok {
		return errNoPosition(id)
	}
	np := stepToward(p, tx, ty, step)
	e.buf.noteRead(id, "x")
	e.buf.noteRead(id, "y")
	if err := e.buf.emitSet(id, "x", entity.Float(np.X)); err != nil {
		return err
	}
	return e.buf.emitSet(id, "y", entity.Float(np.Y))
}

func errNoPosition(id entity.ID) error {
	return fmt.Errorf("world: entity %d has no position", id)
}

// boundFn is one GSL entry point as the tick executes it — a behavior's
// on_tick, or one side (condition or action) of a content-pack rule:
// the parsed program, the query plan the content pack compiled from it
// (nil when the body is outside the compilable subset; shared by every
// world that loaded the pack), and the per-worker-slot executors. Slot
// wi's plan and interpreter clone emit into workerBufs[wi], so they may
// only ever run on worker slot wi.
type boundFn struct {
	entry string
	prog  *script.Program
	plan  *gslplan.Program

	// plans[wi] is bound by grow; ins[wi] is built by slot wi itself the
	// first time it needs the interpreter — there is no plan, or a plan
	// invocation fell back — so an entry point that stays on its plan
	// never builds a clone.
	plans []*gslplan.Plan
	ins   []*script.Interp
}

// grow sizes the per-slot executors to n workers, binding the new
// slots' plans. Runs on the coordinating goroutine before any fan-out;
// the worker buffers must already exist (ensureWorkers).
func (f *boundFn) grow(w *World, n int) {
	for len(f.ins) < n {
		var p *gslplan.Plan
		if f.plan != nil {
			p = f.plan.Bind(planEnv{w: w, buf: w.workerBufs[len(f.ins)]})
		}
		f.plans = append(f.plans, p)
		f.ins = append(f.ins, nil)
	}
}

// invoke executes f once on worker slot wi, inside the invocation the
// caller opened with workerBufs[wi].begin(src), which returned mark. It
// runs the slot's bound plan first and on any plan error rolls the
// invocation back to mark, re-opens it — begin reseeds the rand stream
// from (seed, tick, src), so the re-run replays identical draws — and
// runs the slot's interpreter clone instead, whose value, error or fuel
// exhaustion is authoritative. A clean plan run is, by gslplan's
// contract, the interpreter's run: same value, effects, read-set, draws
// and fuel. onPlan reports which of the two produced the result.
func (w *World) invoke(f *boundFn, wi, mark int, src entity.ID, args ...entity.Value) (v script.Value, fuel int64, onPlan bool, err error) {
	if p := f.plans[wi]; p != nil {
		pv, fuel, err := p.Run(w.cfg.ScriptFuel, args...)
		if err == nil {
			return script.FromEntity(pv), fuel, true, nil
		}
		buf := w.workerBufs[wi]
		buf.rollback(mark)
		buf.begin(src)
	}
	in := f.ins[wi]
	if in == nil {
		in = script.NewInterp(f.prog, script.Options{
			Fuel:     w.cfg.ScriptFuel,
			Builtins: w.effectBuiltins(w.workerBufs[wi]),
		})
		f.ins[wi] = in
	}
	var sargs [content.TriggerArgs]script.Value // the widest entry point
	for i, a := range args {
		sargs[i] = script.FromEntity(a)
	}
	v, err = in.Call(f.entry, sargs[:len(args)]...)
	return v, in.FuelUsed(), false, err
}

// boundBehavior is a content-pack behavior script as the query phase
// runs it: its on_tick plus the profile row of the executor that runs
// it — the compiled twin when the script has a plan, the interpreter
// row otherwise — resolved by Step before the fan-out (nil with
// profiling off; every use is nil-safe).
type boundBehavior struct {
	src  *content.CompiledScript
	fn   boundFn
	prof *obs.ProfEntry
}

// rerunBehavior re-executes entity src's behavior on worker slot 0 for
// the OCC conflict policy, inside the invocation the caller opened with
// workerBufs[0].begin(src), which returned mark. An entity that lost
// its behavior mid-apply — despawned by the round just applied —
// cannot re-run and aborts.
func (w *World) rerunBehavior(src entity.ID, mark int) (int64, error) {
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
	_, fuel, _, err := w.invoke(&b.fn, 0, mark, src, entity.Int(int64(src)))
	return fuel, err
}

// PlanFor reports how a loaded script executes: the plan's Explain text
// when its on_tick compiled, or the first non-compilable construct when
// it stays on the interpreter. ok is false when no loaded script of
// that name has an on_tick.
//
// "trigger/<rule>" (the rule's profile-entry name) reports a content
// pack rule instead, as content.CompiledTrigger.ExplainPlans renders
// it: a rule has two sides, so both results can be non-empty.
func (w *World) PlanFor(name string) (explain string, fallback string, ok bool) {
	if rule, isRule := strings.CutPrefix(name, "trigger/"); isRule {
		for _, bt := range w.trigList {
			if bt.name == rule {
				explain, fallback = bt.src.ExplainPlans()
				return explain, fallback, true
			}
		}
		return "", "", false
	}
	b := w.scripts[name]
	if b == nil {
		return "", "", false
	}
	if b.fn.plan != nil {
		return b.fn.plan.Explain(), "", true
	}
	return "", b.src.Fallback, true
}
