package world

import (
	"fmt"
	"math"

	"gamedb/internal/entity"
	"gamedb/internal/script"
	"gamedb/internal/spatial"
)

// The world exposes two builtin sets to GSL scripts:
//
//   - builtins() — the direct-execution set. Writes mutate tables
//     immediately. Trigger conditions and actions run on it during the
//     single-threaded trigger drain, where cascading reads must observe
//     earlier writes.
//   - effectBuiltins(buf) — the state-effect set behaviors run under.
//     Reads observe the frozen tick-start state; every write (`set`,
//     `add`, `move_toward`, `spawn`, `despawn`, `emit`) lands as a typed
//     record in the worker's EffectBuffer, combined and applied
//     set-at-a-time after the query phase.
//
// Both sets share the read-only core so designers see one language.

func asID(v script.Value) (entity.ID, error) {
	i, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("world: entity id must be int, got %s", v.Kind())
	}
	return entity.ID(i), nil
}

// readBuiltins is the read-only core shared by both execution modes:
// state access, spatial queries and the tick clock. buf is the
// effect-mode invocation buffer, or nil for direct execution; when the
// OCC conflict policy is active the buffer logs every observed cell as
// the invocation's read-set (noteRead is free otherwise). Position
// reads log as the owning entity's x/y cells; nearby logs the query
// center's position — the neighbor *set* itself is a predicate read the
// cell-level tracking deliberately approximates (spatial phantoms are
// out of the conflict policy's scope).
func (w *World) readBuiltins(buf *EffectBuffer) []script.Builtin {
	return []script.Builtin{
		{Name: "get", MinArgs: 2, MaxArgs: 2, Fn: func(args []script.Value) (script.Value, error) {
			id, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			col, ok := args[1].AsStr()
			if !ok {
				return script.Null(), fmt.Errorf("world: get column must be string")
			}
			v, err := w.Get(id, col)
			if err != nil {
				return script.Null(), err
			}
			buf.noteRead(id, col)
			return script.FromEntity(v), nil
		}},
		{Name: "nearby", MinArgs: 2, MaxArgs: 2, Fn: func(args []script.Value) (script.Value, error) {
			id, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			r, ok := args[1].AsFloat()
			if !ok {
				return script.Null(), fmt.Errorf("world: nearby radius must be numeric")
			}
			buf.noteRead(id, "x")
			buf.noteRead(id, "y")
			ids := w.Nearby(id, r)
			out := make([]script.Value, len(ids))
			for i, got := range ids {
				out[i] = script.Int(int64(got))
			}
			return script.List(out...), nil
		}},
		{Name: "dist", MinArgs: 2, MaxArgs: 2, Fn: func(args []script.Value) (script.Value, error) {
			a, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			b, err := asID(args[1])
			if err != nil {
				return script.Null(), err
			}
			pa, okA := w.Pos(a)
			pb, okB := w.Pos(b)
			if okA {
				buf.noteRead(a, "x")
				buf.noteRead(a, "y")
			}
			if okB {
				buf.noteRead(b, "x")
				buf.noteRead(b, "y")
			}
			if !okA || !okB {
				return script.Float(math.Inf(1)), nil
			}
			return script.Float(pa.Dist(pb)), nil
		}},
		{Name: "pos_x", MinArgs: 1, MaxArgs: 1, Fn: func(args []script.Value) (script.Value, error) {
			id, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			p, ok := w.Pos(id)
			if !ok {
				return script.Null(), fmt.Errorf("world: entity %d has no position", id)
			}
			buf.noteRead(id, "x")
			return script.Float(p.X), nil
		}},
		{Name: "pos_y", MinArgs: 1, MaxArgs: 1, Fn: func(args []script.Value) (script.Value, error) {
			id, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			p, ok := w.Pos(id)
			if !ok {
				return script.Null(), fmt.Errorf("world: entity %d has no position", id)
			}
			buf.noteRead(id, "y")
			return script.Float(p.Y), nil
		}},
		{Name: "tick", MinArgs: 0, MaxArgs: 0, Fn: func([]script.Value) (script.Value, error) {
			return script.Int(w.tick), nil
		}},
	}
}

// setArgs parses the shared (id, col, value) triple of set/add.
func setArgs(args []script.Value) (entity.ID, string, entity.Value, error) {
	id, err := asID(args[0])
	if err != nil {
		return 0, "", entity.Null(), err
	}
	col, ok := args[1].AsStr()
	if !ok {
		return 0, "", entity.Null(), fmt.Errorf("world: column must be string")
	}
	ev, err := args[2].ToEntity()
	if err != nil {
		return 0, "", entity.Null(), err
	}
	return id, col, ev, nil
}

// moveTowardStep parses move_toward's arguments and computes its
// frozen-state step: the new position after moving up to `step` toward
// (tx, ty).
func (w *World) moveTowardStep(args []script.Value) (entity.ID, spatial.Vec2, error) {
	id, err := asID(args[0])
	if err != nil {
		return 0, spatial.Vec2{}, err
	}
	tx, ok1 := args[1].AsFloat()
	ty, ok2 := args[2].AsFloat()
	step, ok3 := args[3].AsFloat()
	if !ok1 || !ok2 || !ok3 {
		return 0, spatial.Vec2{}, fmt.Errorf("world: move_toward wants numbers")
	}
	p, ok := w.Pos(id)
	if !ok {
		return 0, spatial.Vec2{}, errNoPosition(id)
	}
	return id, stepToward(p, tx, ty, step), nil
}

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

// builtins is the direct-execution set: reads plus immediate writes.
func (w *World) builtins() []script.Builtin {
	bs := w.readBuiltins(nil)
	return append(bs, []script.Builtin{
		{Name: "set", MinArgs: 3, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			id, col, ev, err := setArgs(args)
			if err != nil {
				return script.Null(), err
			}
			// Scripts write ints where columns want floats; coerce.
			if rec := w.dir.find(id); rec != nil {
				if ci, okC := rec.tab.Schema().Col(col); okC {
					if rec.tab.Schema().ColAt(ci).Kind == entity.KindFloat {
						if f, okF := ev.AsFloat(); okF {
							ev = entity.Float(f)
						}
					}
				}
			}
			return script.Null(), w.Set(id, col, ev)
		}},
		{Name: "add", MinArgs: 3, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			id, col, delta, err := setArgs(args)
			if err != nil {
				return script.Null(), err
			}
			cur, err := w.Get(id, col)
			if err != nil {
				return script.Null(), err
			}
			switch cur.Kind() {
			case entity.KindInt:
				d, okI := delta.AsInt()
				if !okI {
					return script.Null(), fmt.Errorf("world: add to int column %q wants int delta", col)
				}
				return script.Null(), w.Set(id, col, entity.Int(cur.Int()+d))
			case entity.KindFloat:
				d, okF := delta.AsFloat()
				if !okF {
					return script.Null(), fmt.Errorf("world: add delta must be numeric, got %s", delta.Kind())
				}
				return script.Null(), w.Set(id, col, entity.Float(cur.Float()+d))
			default:
				return script.Null(), fmt.Errorf("world: add on non-numeric column %q", col)
			}
		}},
		{Name: "move_toward", MinArgs: 4, MaxArgs: 4, Fn: func(args []script.Value) (script.Value, error) {
			id, np, err := w.moveTowardStep(args)
			if err != nil {
				return script.Null(), err
			}
			if err := w.Set(id, "x", entity.Float(np.X)); err != nil {
				return script.Null(), err
			}
			return script.Null(), w.Set(id, "y", entity.Float(np.Y))
		}},
		{Name: "emit", MinArgs: 2, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			name, id, amount, err := emitArgs(args)
			if err != nil {
				return script.Null(), err
			}
			w.Post(name, id, amount)
			return script.Null(), nil
		}},
		{Name: "despawn", MinArgs: 1, MaxArgs: 1, Fn: func(args []script.Value) (script.Value, error) {
			id, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			return script.Null(), w.Despawn(id)
		}},
		{Name: "spawn", MinArgs: 3, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			arch, pos, err := spawnArgs(args)
			if err != nil {
				return script.Null(), err
			}
			id, err := w.Spawn(arch, pos)
			if err != nil {
				return script.Null(), err
			}
			return script.Int(int64(id)), nil
		}},
		{Name: "rand_float", MinArgs: 0, MaxArgs: 0, Fn: func([]script.Value) (script.Value, error) {
			return script.Float(w.rng.Float64()), nil
		}},
	}...)
}

// effectBuiltins is the state-effect set: reads over the frozen state,
// writes buffered into buf. rand_float draws a per-(seed, tick, entity)
// deterministic stream so results do not depend on worker scheduling.
func (w *World) effectBuiltins(buf *EffectBuffer) []script.Builtin {
	bs := w.readBuiltins(buf)
	return append(bs, []script.Builtin{
		{Name: "set", MinArgs: 3, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			id, col, ev, err := setArgs(args)
			if err != nil {
				return script.Null(), err
			}
			return script.Null(), buf.emitSet(id, col, ev)
		}},
		{Name: "add", MinArgs: 3, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			id, col, delta, err := setArgs(args)
			if err != nil {
				return script.Null(), err
			}
			return script.Null(), buf.emitAdd(id, col, delta)
		}},
		{Name: "move_toward", MinArgs: 4, MaxArgs: 4, Fn: func(args []script.Value) (script.Value, error) {
			id, np, err := w.moveTowardStep(args)
			if err != nil {
				return script.Null(), err
			}
			// The step is computed from the entity's frozen position —
			// a read-modify-write on its x/y cells.
			buf.noteRead(id, "x")
			buf.noteRead(id, "y")
			if err := buf.emitSet(id, "x", entity.Float(np.X)); err != nil {
				return script.Null(), err
			}
			return script.Null(), buf.emitSet(id, "y", entity.Float(np.Y))
		}},
		{Name: "emit", MinArgs: 2, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			name, id, amount, err := emitArgs(args)
			if err != nil {
				return script.Null(), err
			}
			buf.emitPost(name, id, amount)
			return script.Null(), nil
		}},
		{Name: "despawn", MinArgs: 1, MaxArgs: 1, Fn: func(args []script.Value) (script.Value, error) {
			id, err := asID(args[0])
			if err != nil {
				return script.Null(), err
			}
			return script.Null(), buf.emitDespawn(id)
		}},
		{Name: "spawn", MinArgs: 3, MaxArgs: 3, Fn: func(args []script.Value) (script.Value, error) {
			arch, pos, err := spawnArgs(args)
			if err != nil {
				return script.Null(), err
			}
			id, err := buf.emitSpawn(arch, pos)
			if err != nil {
				return script.Null(), err
			}
			return script.Int(int64(id)), nil
		}},
		{Name: "rand_float", MinArgs: 0, MaxArgs: 0, Fn: func([]script.Value) (script.Value, error) {
			return script.Float(buf.randFloat()), nil
		}},
	}...)
}

func emitArgs(args []script.Value) (string, entity.ID, entity.Value, error) {
	name, ok := args[0].AsStr()
	if !ok {
		return "", 0, entity.Null(), fmt.Errorf("world: emit event name must be string")
	}
	id, err := asID(args[1])
	if err != nil {
		return "", 0, entity.Null(), err
	}
	amount := entity.Null()
	if len(args) == 3 {
		amount, err = args[2].ToEntity()
		if err != nil {
			return "", 0, entity.Null(), err
		}
	}
	return name, id, amount, nil
}

func spawnArgs(args []script.Value) (string, spatial.Vec2, error) {
	arch, ok := args[0].AsStr()
	if !ok {
		return "", spatial.Vec2{}, fmt.Errorf("world: spawn archetype must be string")
	}
	x, ok1 := args[1].AsFloat()
	y, ok2 := args[2].AsFloat()
	if !ok1 || !ok2 {
		return "", spatial.Vec2{}, fmt.Errorf("world: spawn position must be numeric")
	}
	return arch, spatial.Vec2{X: x, Y: y}, nil
}
