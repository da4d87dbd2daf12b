package shard

import "testing"

// The cascade crowd's trajectory (1 shard × 1 worker): the digest
// after tick 40, and an FNV-style fold of all 40 per-tick digests. The
// trajectory was first recorded from the commit before trigger
// conditions and actions moved onto gslplan plans, under the sorted
// FNV-64a row hash; the legacy modes' last commit and the
// interpreter-only run of this test reproduced it. When the world
// digest replaced that hash, the pair was re-recorded from a run whose
// old-hash final and fold still matched the recorded ones.
const (
	cascadeGoldenFinal = 0x29c9d716c42618c4
	cascadeGoldenFold  = 0x77e4a4bb8648958e
)

// TestCompiledTriggerHashTrajectoryAcrossGrid pins trigger execution two
// ways at once: the cascade crowd's per-tick hash trajectory is the same
// at every Shards × Workers × policy grid point, and it is the
// trajectory the interpreter-only commit recorded.
func TestCompiledTriggerHashTrajectoryAcrossGrid(t *testing.T) {
	runGrid(t, goldenCascade.over(gridAxes{shards: []int{1, 2, 4}, workers: []int{1, 4}, policies: bothPolicies}))
}
