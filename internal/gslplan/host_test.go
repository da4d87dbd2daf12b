package gslplan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/script"
)

// fakeHost is a small fixed world that serves both executors: it is the
// Env a bound plan runs against, and builtins() wraps the very same
// methods as the script builtins the interpreter runs against (checking
// their arguments in the order and words of the plan's builtin
// dispatch). Every observable interaction — reads, effects, posts,
// spawns, rand draws — appends to trace, so "the plan run is the
// interpreter's run" is one string comparison plus the returned value,
// the fuel total and the error text.
type fakeHost struct {
	cells   map[entity.ID]map[string]entity.Value
	pos     map[entity.ID][2]float64
	spawned map[entity.ID]bool
	draws   int
	trace   []string
}

func newFakeHost() *fakeHost {
	h := &fakeHost{
		cells:   map[entity.ID]map[string]entity.Value{},
		pos:     map[entity.ID][2]float64{},
		spawned: map[entity.ID]bool{},
	}
	for i := entity.ID(1); i <= 5; i++ {
		x, y := float64(i)*3, float64(i%2)*4
		h.cells[i] = map[string]entity.Value{
			"boom": entity.Int(int64(i)), "flag": entity.Int(0), "engaged": entity.Int(2),
			"hp": entity.Float(10 * float64(i)), "tag": entity.Str("u"), "on": entity.Bool(i%2 == 0),
			// The columns the scenario and world test packs touch.
			"x": entity.Float(x), "y": entity.Float(y), "met": entity.Int(0), "jit": entity.Float(0),
			"kind": entity.Int(int64(i % 3)), "claim": entity.Int(0), "heat": entity.Int(int64(i)),
			"claimed": entity.Int(0), "kb": entity.Int(0), "hits": entity.Int(0), "pings": entity.Int(0),
		}
		h.pos[i] = [2]float64{x, y}
	}
	// Entity 9 exists but has no position.
	h.cells[9] = map[string]entity.Value{"boom": entity.Int(0)}
	return h
}

func (h *fakeHost) logf(format string, a ...any) {
	h.trace = append(h.trace, fmt.Sprintf(format, a...))
}

func (h *fakeHost) Get(id entity.ID, col string) (entity.Value, error) {
	row, ok := h.cells[id]
	if !ok {
		return entity.Null(), fmt.Errorf("fake: unknown entity %d", id)
	}
	v, ok := row[col]
	if !ok {
		return entity.Null(), fmt.Errorf("fake: no column %q", col)
	}
	h.logf("read %d.%s", id, col)
	return v, nil
}

func (h *fakeHost) AppendNearby(dst []entity.ID, id entity.ID, radius float64) []entity.ID {
	h.logf("read %d.x", id)
	h.logf("read %d.y", id)
	p, ok := h.pos[id]
	if !ok {
		return dst
	}
	base := len(dst)
	for other, q := range h.pos {
		if other != id && math.Hypot(p[0]-q[0], p[1]-q[1]) <= radius {
			dst = append(dst, other)
		}
	}
	slices.Sort(dst[base:])
	h.logf("probe %d r=%v -> %v", id, radius, dst[base:])
	return dst
}

func (h *fakeHost) Dist(a, b entity.ID) float64 {
	pa, okA := h.pos[a]
	pb, okB := h.pos[b]
	if okA {
		h.logf("read %d.x", a)
		h.logf("read %d.y", a)
	}
	if okB {
		h.logf("read %d.x", b)
		h.logf("read %d.y", b)
	}
	if !okA || !okB {
		return math.Inf(1)
	}
	return math.Hypot(pa[0]-pb[0], pa[1]-pb[1])
}

func (h *fakeHost) posAxis(id entity.ID, axis int, name string) (float64, error) {
	p, ok := h.pos[id]
	if !ok {
		return 0, fmt.Errorf("fake: entity %d has no position", id)
	}
	h.logf("read %d.%s", id, name)
	return p[axis], nil
}

func (h *fakeHost) PosX(id entity.ID) (float64, error) { return h.posAxis(id, 0, "x") }
func (h *fakeHost) PosY(id entity.ID) (float64, error) { return h.posAxis(id, 1, "y") }
func (h *fakeHost) Tick() int64                        { return 42 }

func (h *fakeHost) RandFloat() float64 {
	h.draws++
	h.logf("rand #%d", h.draws)
	return math.Mod(float64(h.draws)*0.37, 1)
}

func (h *fakeHost) emit(kind string, id entity.ID, col string, v entity.Value) error {
	if h.spawned[id] {
		h.logf("%s %d.%s %s:%s", kind, id, col, v.Kind(), v)
		return nil
	}
	row, ok := h.cells[id]
	if !ok {
		return fmt.Errorf("fake: unknown entity %d", id)
	}
	if _, ok := row[col]; !ok {
		return fmt.Errorf("fake: no column %q", col)
	}
	h.logf("%s %d.%s %s:%s", kind, id, col, v.Kind(), v)
	return nil
}

func (h *fakeHost) EmitSet(id entity.ID, col string, v entity.Value) error {
	return h.emit("set", id, col, v)
}

func (h *fakeHost) EmitAdd(id entity.ID, col string, d entity.Value) error {
	if d.Kind() != entity.KindInt && d.Kind() != entity.KindFloat {
		return fmt.Errorf("fake: add delta must be numeric, got %s", d.Kind())
	}
	return h.emit("add", id, col, d)
}

func (h *fakeHost) EmitPost(name string, id entity.ID, amount entity.Value) {
	h.logf("post %s %d %s:%s", name, id, amount.Kind(), amount)
}

func (h *fakeHost) MoveToward(id entity.ID, tx, ty, step float64) error {
	if _, ok := h.pos[id]; !ok {
		return fmt.Errorf("fake: entity %d has no position", id)
	}
	h.logf("read %d.x", id)
	h.logf("read %d.y", id)
	h.logf("move %d -> (%v, %v) step %v", id, tx, ty, step)
	return nil
}

// EmitSpawn knows two archetypes; spawned ids take writes (like the
// world's provisional ids) but no reads.
func (h *fakeHost) EmitSpawn(arch string, x, y float64) (entity.ID, error) {
	if arch != "spark" && arch != "drone" {
		return 0, fmt.Errorf("fake: unknown archetype %q", arch)
	}
	id := entity.ID(1000 + len(h.spawned))
	h.spawned[id] = true
	h.logf("spawn %s at (%v, %v) -> %d", arch, x, y, id)
	return id, nil
}

func (h *fakeHost) EmitDespawn(id entity.ID) error {
	if _, ok := h.cells[id]; !ok && !h.spawned[id] {
		return fmt.Errorf("fake: unknown entity %d", id)
	}
	h.logf("despawn %d", id)
	return nil
}

// The interpreter-side argument checks, worded like the plan's.
func scriptID(v script.Value) (entity.ID, error) {
	i, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("gslplan: entity id must be int, got %s", v.Kind())
	}
	return entity.ID(i), nil
}

func scriptCol(v script.Value) (string, error) {
	col, ok := v.AsStr()
	if !ok {
		return "", fmt.Errorf("gslplan: column name must be string, got %s", v.Kind())
	}
	return col, nil
}

// builtins exposes the host to the interpreter. Each entry checks its
// arguments the way the plan's dispatch does and then calls the same
// method a plan would, so the two executors can only disagree if the
// plan itself does.
func (h *fakeHost) builtins() []script.Builtin {
	null := script.Null()
	setLike := func(emit func(entity.ID, string, entity.Value) error) func([]script.Value) (script.Value, error) {
		return func(a []script.Value) (script.Value, error) {
			id, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			col, err := scriptCol(a[1])
			if err != nil {
				return null, err
			}
			v, err := toEntity(a[2])
			if err != nil {
				return null, err
			}
			return null, emit(id, col, v)
		}
	}
	axis := func(get func(entity.ID) (float64, error)) func([]script.Value) (script.Value, error) {
		return func(a []script.Value) (script.Value, error) {
			id, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			f, err := get(id)
			if err != nil {
				return null, err
			}
			return script.Float(f), nil
		}
	}
	return []script.Builtin{
		{Name: "get", MinArgs: 2, MaxArgs: 2, Fn: func(a []script.Value) (script.Value, error) {
			id, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			col, err := scriptCol(a[1])
			if err != nil {
				return null, err
			}
			v, err := h.Get(id, col)
			if err != nil {
				return null, err
			}
			return script.FromEntity(v), nil
		}},
		{Name: "nearby", MinArgs: 2, MaxArgs: 2, Fn: func(a []script.Value) (script.Value, error) {
			id, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			r, ok := a[1].AsFloat()
			if !ok {
				return null, fmt.Errorf("gslplan: nearby radius must be a number, got %s", a[1].Kind())
			}
			ids := h.AppendNearby(nil, id, r)
			out := make([]script.Value, len(ids))
			for i, got := range ids {
				out[i] = script.Int(int64(got))
			}
			return script.List(out...), nil
		}},
		{Name: "dist", MinArgs: 2, MaxArgs: 2, Fn: func(a []script.Value) (script.Value, error) {
			x, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			y, err := scriptID(a[1])
			if err != nil {
				return null, err
			}
			return script.Float(h.Dist(x, y)), nil
		}},
		{Name: "pos_x", MinArgs: 1, MaxArgs: 1, Fn: axis(h.PosX)},
		{Name: "pos_y", MinArgs: 1, MaxArgs: 1, Fn: axis(h.PosY)},
		{Name: "tick", MinArgs: 0, MaxArgs: 0, Fn: func([]script.Value) (script.Value, error) {
			return script.Int(h.Tick()), nil
		}},
		{Name: "rand_float", MinArgs: 0, MaxArgs: 0, Fn: func([]script.Value) (script.Value, error) {
			return script.Float(h.RandFloat()), nil
		}},
		{Name: "set", MinArgs: 3, MaxArgs: 3, Fn: setLike(h.EmitSet)},
		{Name: "add", MinArgs: 3, MaxArgs: 3, Fn: setLike(h.EmitAdd)},
		{Name: "emit", MinArgs: 2, MaxArgs: 3, Fn: func(a []script.Value) (script.Value, error) {
			name, ok := a[0].AsStr()
			if !ok {
				return null, fmt.Errorf("gslplan: event name must be string, got %s", a[0].Kind())
			}
			id, err := scriptID(a[1])
			if err != nil {
				return null, err
			}
			amount := entity.Null()
			if len(a) == 3 {
				if amount, err = toEntity(a[2]); err != nil {
					return null, err
				}
			}
			h.EmitPost(name, id, amount)
			return null, nil
		}},
		{Name: "move_toward", MinArgs: 4, MaxArgs: 4, Fn: func(a []script.Value) (script.Value, error) {
			id, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			tx, ok1 := a[1].AsFloat()
			ty, ok2 := a[2].AsFloat()
			step, ok3 := a[3].AsFloat()
			if !ok1 || !ok2 || !ok3 {
				return null, fmt.Errorf("gslplan: move_toward wants numbers")
			}
			return null, h.MoveToward(id, tx, ty, step)
		}},
		{Name: "spawn", MinArgs: 3, MaxArgs: 3, Fn: func(a []script.Value) (script.Value, error) {
			arch, ok := a[0].AsStr()
			if !ok {
				return null, fmt.Errorf("gslplan: spawn archetype must be string, got %s", a[0].Kind())
			}
			x, okX := a[1].AsFloat()
			y, okY := a[2].AsFloat()
			if !okX || !okY {
				return null, fmt.Errorf("gslplan: spawn position must be numeric")
			}
			id, err := h.EmitSpawn(arch, x, y)
			if err != nil {
				return null, err
			}
			return script.Int(int64(id)), nil
		}},
		{Name: "despawn", MinArgs: 1, MaxArgs: 1, Fn: func(a []script.Value) (script.Value, error) {
			id, err := scriptID(a[0])
			if err != nil {
				return null, err
			}
			return null, h.EmitDespawn(id)
		}},
	}
}

// outcome is everything one invocation can be observed to have done.
type outcome struct {
	val   script.Value
	fuel  int64
	trace string
	err   error
}

// interpOutcome calls entry(args...) on a fresh interpreter over a
// fresh host with the given fuel cap.
func interpOutcome(prog *script.Program, entry string, fuelCap int64, args []entity.Value) outcome {
	h := newFakeHost()
	in := script.NewInterp(prog, script.Options{Fuel: fuelCap, Builtins: h.builtins()})
	sargs := make([]script.Value, len(args))
	for i, a := range args {
		sargs[i] = script.FromEntity(a)
	}
	v, err := in.Call(entry, sargs...)
	return outcome{val: v, fuel: in.FuelUsed(), trace: strings.Join(h.trace, "\n"), err: err}
}

// planOutcome runs the compiled program over a fresh host.
func planOutcome(p *Program, fuelCap int64, args []entity.Value) outcome {
	h := newFakeHost()
	v, fuel, err := p.Bind(h).Run(fuelCap, args...)
	return outcome{val: script.FromEntity(v), fuel: fuel, trace: strings.Join(h.trace, "\n"), err: err}
}

// class names an outcome the way the world accounts for it.
func (o outcome) class() string {
	switch {
	case o.err == nil:
		return "ok"
	case isFuel(o.err):
		return "fuel skip"
	default:
		return "error"
	}
}

func isFuel(err error) bool { return errors.Is(err, script.ErrFuel) }

// sameRun reports how the plan's run differs from the interpreter's, or
// "" when it is the same run: same outcome class and error text (which
// carries the source line of language and fuel errors), same fuel (the
// cap+1 of an exhausted run included), and the same reads / effects /
// posts / spawns / draws in the same order. On success the returned
// value must match too, kind included.
func sameRun(interp, plan outcome) string {
	if interp.class() != plan.class() {
		return fmt.Sprintf("outcome: interpreter %s (%v), plan %s (%v)", interp.class(), interp.err, plan.class(), plan.err)
	}
	if interp.err != nil && interp.err.Error() != plan.err.Error() {
		return fmt.Sprintf("error: interpreter %q, plan %q", interp.err, plan.err)
	}
	// Kind plus rendering is exact: floats print round-trip, and unlike
	// script.Equal it tells int 1 from float 1.0 and matches NaN to NaN.
	if interp.err == nil && (interp.val.Kind() != plan.val.Kind() || interp.val.String() != plan.val.String()) {
		return fmt.Sprintf("value: interpreter %s %s, plan %s %s",
			interp.val.Kind(), interp.val, plan.val.Kind(), plan.val)
	}
	if interp.fuel != plan.fuel {
		return fmt.Sprintf("fuel: interpreter %d, plan %d", interp.fuel, plan.fuel)
	}
	if interp.trace != plan.trace {
		return fmt.Sprintf("trace:\n-- interpreter --\n%s\n-- plan --\n%s", interp.trace, plan.trace)
	}
	return ""
}

// sweepCaps runs prog's entry on both executors at every fuel cap from
// 0 (the default budget) to one past the interpreter's full run and
// fails at the first cap where the runs differ. Bodies that do not
// finish within limit nodes are swept to limit+1 and skip cap 0.
func sweepCaps(t *testing.T, label string, prog *script.Program, plan *Program, entry string, args []entity.Value, limit int64) {
	t.Helper()
	full := interpOutcome(prog, entry, limit, args)
	last := min(full.fuel, limit)
	start := int64(0)
	if isFuel(full.err) {
		start = 1
	}
	for cap := start; cap <= last+1; cap++ {
		if diff := sameRun(interpOutcome(prog, entry, cap, args), planOutcome(plan, cap, args)); diff != "" {
			t.Fatalf("%s cap %d: %s", label, cap, diff)
		}
	}
}

// triggerSrc wraps a <when> expression or a <do> statement list the way
// content.Compile does.
func triggerSrc(entry, body string) string {
	if entry == "cond" {
		return fmt.Sprintf("fn cond(self, amount) { return %s; }", body)
	}
	return fmt.Sprintf("fn act(self, amount) { %s }", body)
}

func mustCompileTrigger(t *testing.T, entry, body string) (*script.Program, *Program) {
	t.Helper()
	prog := mustParse(t, triggerSrc(entry, body))
	p, err := Compile("rule", prog, entry, 2)
	if err != nil {
		t.Fatalf("%s %q: %v", entry, body, err)
	}
	return prog, p
}

// toEntity converts a script value into a store value; lists do not fit
// in table cells and fail.
func toEntity(v script.Value) (entity.Value, error) {
	switch v.Kind() {
	case script.KInt:
		i, _ := v.AsInt()
		return entity.Int(i), nil
	case script.KFloat:
		f, _ := v.AsFloat()
		return entity.Float(f), nil
	case script.KStr:
		s, _ := v.AsStr()
		return entity.Str(s), nil
	case script.KBool:
		b, _ := v.AsBool()
		return entity.Bool(b), nil
	case script.KNull:
		return entity.Null(), nil
	}
	return entity.Null(), fmt.Errorf("script: cannot store %s in a table cell", v.Kind())
}
