// Package experiment implements the reproduction suite: one driver per
// experiment in DESIGN.md (E1–E12), each testing one quantitative claim
// of the paper and printing a paper-style table. cmd/gamebench runs the
// suite; bench_test.go wraps the measured kernels as Go benchmarks;
// EXPERIMENTS.md records claim vs measured shape.
package experiment

import (
	"math/rand"
	"time"

	"gamedb/internal/metrics"
)

// Driver produces one experiment's table. quick shrinks sizes for tests
// and CI; the shapes under test must hold in both modes.
type Driver struct {
	ID    string
	Title string
	Run   func(quick bool) *metrics.Table
}

// All returns the drivers in paper order.
func All() []Driver {
	return []Driver{
		{"E1", "F1: pairwise interaction cost — naive Ω(n²) vs indexed band join", E1Pairwise},
		{"E2", "F2: range queries across spatial indexes", E2RangeQueries},
		{"E3", "T1: k-nearest-neighbor queries across spatial indexes", E3KNN},
		{"E4", "F3: concurrency control — locks vs causality bubbles", E4Concurrency},
		{"E5", "F4: consistency tiers — bandwidth vs divergence", E5ConsistencyTiers},
		{"E6", "T2: aggro management vs exact spatial targeting", E6Aggro},
		{"E7", "F5: checkpoint policies — lost progress on crash", E7Checkpointing},
		{"E8", "F6: live schema migration vs blob storage", E8SchemaEvolution},
		{"E9", "T3: per-entity scripting vs set-at-a-time processing", E9SetAtATime},
		{"E10", "F7: partitioned parallel band join speedup", E10ParallelJoin},
		{"E11", "T4: restricted scripting — bounding designer cost", E11RestrictedScripting},
		{"E12", "T5: navigation mesh vs grid A*; annotated queries", E12NavMesh},
		{"E17", "conflict policies: last-write-wins vs serializable OCC re-runs", E17ConflictPolicy},
		{"E18", "observability overhead: tracing + profiling on vs off", E18ObservabilityOverhead},
		{"E19", "change-feed replication: client fan-out", E19ChangeFeedReplication},
		{"E22", "cross-shard effects: ghost writes forwarded through the tick barrier", E22CrossShardEffects},
		{"A1", "ablation: causality-bubble prediction horizon", A1BubbleHorizon},
		{"A2", "ablation: grid cell size vs query radius", A2GridCellSize},
		{"A3", "ablation: WAL batch size under rare checkpoints", A3WALBatch},
	}
}

// ByID returns the driver with the given id.
func ByID(id string) (Driver, bool) {
	for _, d := range All() {
		if d.ID == id {
			return d, true
		}
	}
	return Driver{}, false
}

// timeOp measures one execution of f.
func timeOp(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timeOpN measures n executions of f and returns the per-execution mean.
func timeOpN(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// newRng returns the suite's deterministic RNG for an experiment.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}
