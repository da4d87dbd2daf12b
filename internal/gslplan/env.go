// Package gslplan compiles GSL entry functions into slot-addressed
// plans, and is the only way a world executes GSL: instead of
// tree-walking the script AST with map-based scopes and boxed script
// values, a behavior's on_tick or a trigger rule's cond/act compiles
// once per content pack into operator nodes over a fixed frame of
// scalar and list slots — variables resolve to slots at compile time,
// operators apply the query layer's semantics (query.Apply), and the
// stateful calls (get, nearby, set, spawn, ...) become operator nodes
// against a host Env. A bound plan runs over the frozen tick-start state
// while honoring the effect-buffer contract exactly: identical effect
// records, identical per-invocation read-sets, identical per-entity rand
// draws.
//
// The same nodes have two evaluation methods. Run executes one
// invocation. RunBatch (batch.go) executes a behavior over a whole batch
// of subjects, statement by statement over a selection vector of lanes:
// every node is visited once per batch, control flow becomes masks and
// for-in runs iteration-major. Each lane talks to the host through its
// own Env (BatchEnv.Lane), so its reads, effects, nearby probes and draws
// are its scalar run's. A lane that errors or crosses its fuel cap is handed back not
// OK, and the host re-runs it on Run, which alone decides its outcome;
// so is every lane of a program with a while loop or a user function
// call (Program.PerEntity names the first). Trigger rules run only on
// Run.
//
// Behaviors are one client; trigger rules are the other. Compile takes
// the entry function and its argument count, and a run returns the
// value of its return statement, so a rule's cond(self, amount) and
// act(self, amount) lower onto the same Program / Plan / Env, and the
// trigger drain runs them over a cascade round's matches, chunked across
// workers, one Run per match.
//
// The language a plan runs is GSL as script.Interp runs it: while loops
// with break and continue, for-in over nearby results, user functions
// (each compiled once into its own slots; recursion is rejected with
// the restricted-mode checker's cycle finder), spawn and despawn. A
// plan run is the interpreter's run at every fuel cap — the same nodes
// burn in the same order, a run stops at the node that crosses the cap,
// and runtime errors carry the interpreter's line and message — so the
// interpreter is this package's test oracle, not a runtime fallback.
// What cannot lower (list() and push, list variables reassigned to
// anything but nearby, unknown functions, undefined variables,
// recursion) is a *NotCompilable error, which content.Compile reports
// as a load error.
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
	// EmitSpawn buffers a spawn of the archetype at (x, y) and returns
	// the provisional id later effects of the invocation can target.
	EmitSpawn(archetype string, x, y float64) (entity.ID, error)
	// EmitDespawn buffers a despawn.
	EmitDespawn(id entity.ID) error
}
