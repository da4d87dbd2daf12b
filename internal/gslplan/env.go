// Package gslplan compiles GSL behavior bodies into set-at-a-time
// query plans: instead of tree-walking the script AST once per entity
// with map-based scopes and boxed script values, a behavior compiles
// once into a slot-addressed program whose pure expression fragments
// are lowered onto internal/query expression trees (Col/Const/
// arithmetic/comparison nodes bound against a fixed slot descriptor)
// and whose stateful calls (get, nearby, set, ...) become direct
// operator nodes against a host Env. The bound plan then executes once
// per behavior over the whole roster chunk — the paper's declarative-
// processing move — while honoring the effect-buffer contract exactly:
// identical effect records, identical per-invocation read-sets,
// identical per-entity rand draws, and fuel accounting that matches
// the interpreter burn-for-burn on every successful invocation.
//
// Behaviors are one client; trigger rules are the other. Compile takes
// the entry function and its argument count, and a run returns the
// value of its return statement, so a rule's cond(self, amount) and
// act(self, amount) lower onto the same Program / Plan / Env and the
// trigger drain batches them over a cascade round's matches the way the
// query phase batches on_tick over the roster.
//
// The compiler is deliberately conservative: any construct outside the
// compilable shapes (while loops, break/continue, user function calls,
// list-valued expressions beyond nearby results, spawn/despawn, ...)
// returns a NotCompilable error naming the first offending construct,
// and the world falls back to the interpreter for that behavior. A
// compiled run that errors at runtime (or would exhaust its fuel
// budget) is likewise discarded whole — rolled back and re-run on the
// interpreter, whose outcome is authoritative — so the compiled path
// can only ever agree with interpretation, never diverge from it.
package gslplan

import "gamedb/internal/entity"

// Env is the host surface a bound plan executes against: the world's
// frozen tick-start state plus one worker's effect buffer. Every
// method must behave exactly like the corresponding effect-mode GSL
// builtin, including read-set logging order (the OCC conflict policy
// validates against those cells) and the per-entity deterministic rand
// stream.
type Env interface {
	// Get reads a column of any entity, logging (id, col) into the
	// invocation read-set after a successful read.
	Get(id entity.ID, col string) (entity.Value, error)
	// AppendNearby appends to dst the ids within radius of the entity
	// (excluding it, sorted) and returns the extended slice, logging the
	// query center's (id, x) and (id, y) cells before the spatial probe.
	AppendNearby(dst []entity.ID, id entity.ID, radius float64) []entity.ID
	// Dist returns the distance between two entities' indexed
	// positions (+Inf when either has none), logging each present
	// entity's x/y cells.
	Dist(a, b entity.ID) float64
	// PosX returns the entity's indexed x coordinate, logging (id, x);
	// it errors when the entity has no position.
	PosX(id entity.ID) (float64, error)
	// PosY is PosX for y.
	PosY(id entity.ID) (float64, error)
	// Tick returns the current tick number.
	Tick() int64
	// RandFloat draws from the invocation's deterministic rand stream.
	RandFloat() float64
	// EmitSet buffers an assignment effect.
	EmitSet(id entity.ID, col string, v entity.Value) error
	// EmitAdd buffers an additive-delta effect.
	EmitAdd(id entity.ID, col string, delta entity.Value) error
	// EmitPost buffers a trigger event post.
	EmitPost(name string, id entity.ID, amount entity.Value)
	// MoveToward computes the frozen-state move_toward step for the
	// entity (logging its x/y read-modify-write cells) and buffers the
	// two position assignments.
	MoveToward(id entity.ID, tx, ty, step float64) error
}
