package shard

import "testing"

// Recorded from the commit before trigger conditions and actions moved
// onto gslplan plans (1 shard × 1 worker, both policies): the hash
// after tick 40, and an FNV-style fold of all 40 per-tick hashes. The
// legacy modes' last commit and the interpreter-only run of this test,
// while one existed, reproduced both.
const (
	cascadeGoldenFinal = 0x4aa13f695d915bed
	cascadeGoldenFold  = 0x77b807f880a466bc
)

// TestCompiledTriggerHashTrajectoryAcrossGrid pins trigger execution two
// ways at once: the cascade crowd's per-tick hash trajectory is the same
// at every Shards × Workers × policy grid point, and it is the
// trajectory the interpreter-only commit recorded.
func TestCompiledTriggerHashTrajectoryAcrossGrid(t *testing.T) {
	runGrid(t, goldenCascade.over(gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 4}, policies: bothPolicies}))
}
