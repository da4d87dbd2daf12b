package world

import (
	"fmt"
	"math"
	"strings"

	"gamedb/internal/entity"
	"gamedb/internal/gslplan"
	"gamedb/internal/script"
)

// This file hosts the world side of compiled execution — behaviors
// under Config.CompileBehaviors = CompileOn, content-pack trigger rules
// always (trigger_phase.go): the gslplan.Env implementation
// that routes a compiled plan's reads and effects through the same
// frozen-state accessors and EffectBuffer entry points the effect-mode
// builtins use — same read-set logging, same effect records, same
// deterministic rand stream — plus the per-script plan compilation
// LoadContent performs and the per-worker bound-plan caches.

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
	return e.w.AppendNearby(dst, id, radius)
}

func (e planEnv) Dist(a, b entity.ID) float64 {
	pa, okA := e.w.Pos(a)
	pb, okB := e.w.Pos(b)
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
	p, ok := e.w.Pos(id)
	if !ok {
		return 0, errNoPosition(id)
	}
	e.buf.noteRead(id, "x")
	return p.X, nil
}

func (e planEnv) PosY(id entity.ID) (float64, error) {
	p, ok := e.w.Pos(id)
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
	args := []script.Value{
		script.Int(int64(id)), script.Float(tx), script.Float(ty), script.Float(step),
	}
	mid, np, err := e.w.moveTowardStep(args)
	if err != nil {
		return err
	}
	e.buf.noteRead(mid, "x")
	e.buf.noteRead(mid, "y")
	if err := e.buf.emitSet(mid, "x", entity.Float(np.X)); err != nil {
		return err
	}
	return e.buf.emitSet(mid, "y", entity.Float(np.Y))
}

func errNoPosition(id entity.ID) error {
	return fmt.Errorf("world: entity %d has no position", id)
}

// compileBehavior lowers a freshly loaded script onto a query plan
// (when CompileBehaviors is on) and records either the shared plan
// template or the first non-compilable construct. Scripts without an
// on_tick entry point are skipped — they never run as behaviors.
func (w *World) compileBehavior(name string, prog *script.Program) {
	if !w.compileEnabled() {
		return
	}
	if prog.Fns[gslplan.EntryFn] == nil {
		return
	}
	if w.planProgs == nil {
		w.planProgs = make(map[string]*gslplan.Program)
		w.planFails = make(map[string]string)
	}
	p, err := gslplan.Compile(name, prog, gslplan.EntryFn, 1)
	if err != nil {
		_, w.planFails[name] = gslplan.Reason(err)
		return
	}
	w.planProgs[name] = p
}

// behaviorPlan returns worker wi's bound plan for the named behavior,
// binding it on first use (mirroring behaviorInterp's clone cache).
// plans is w.workerPlans; nil entries mean "not compilable".
func (w *World) behaviorPlan(plans []map[string]*gslplan.Plan, wi int, name string) *gslplan.Plan {
	cache := plans[wi]
	if cache == nil {
		cache = make(map[string]*gslplan.Plan)
		plans[wi] = cache
	}
	p, ok := cache[name]
	if !ok {
		if prog := w.planProgs[name]; prog != nil {
			p = prog.Bind(planEnv{w: w, buf: w.workerBufs[wi]})
		}
		cache[name] = p
	}
	return p
}

// PlanFor reports the compiled plan state of a loaded script: the
// plan's Explain text when it compiled, or the first non-compilable
// construct when it fell back. ok is false when the script is unknown
// or compilation is disabled.
//
// "trigger/<rule>" (the rule's profile-entry name) reports a content
// pack rule instead, as content.CompiledTrigger.ExplainPlans renders
// it: a rule has two sides, so both results can be non-empty. Rules
// compile regardless of Config.CompileBehaviors.
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
	if p, found := w.planProgs[name]; found {
		return p.Explain(), "", true
	}
	if reason, found := w.planFails[name]; found {
		return "", reason, true
	}
	return "", "", false
}
