package reach

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stayDeleted lists names of replaced designs that must not come back.
// Each row keeps a pattern and the git pathspecs it is searched in (see
// scope). Test files are in scope unless a row excludes them. This file
// spells every pattern, so it is never searched.
var stayDeleted = []struct {
	name    string
	pattern string
	word    bool // match whole words only, as git grep -w
	specs   []string
}{
	{
		name:    "No mode switches (the deleted equivalence-baseline knobs stay out of non-test code)",
		pattern: `RowApply|DirectTriggers|ReconcileFullScan|CompileOff|compileEnabled`,
		specs:   []string{"*.go", ":!*_test.go", ":!bench"},
	},
	{
		name:    "One barrier (the deleted coordinator barrier and its reconcile stay out of the shard package and the CLIs)",
		pattern: `refreshIncremental|refreshFull|collectFromFeeds|collectFromBand|collectBarrier|applyHandoff|mirrorMask|exchangeEffects|NewPipeCluster`,
		specs:   []string{"internal/shard/*.go", "cmd", ":!*_test.go"},
	},
	{
		name:    "One GSL executor (the world's interpreter fallback, its builtin sets and the reference hooks stay deleted)",
		pattern: `effectBuiltins|readBuiltins|CondFallback|ActFallback|CompiledEntry|TriggerCompiled|UseDirectTriggers|StripPlans|directTriggers`,
		specs:   []string{"*.go", ":!bench"},
	},
	{
		name:    "One GSL executor (only gslrun and the experiments build an interpreter outside its package)",
		pattern: `script\.NewInterp`,
		specs:   []string{"*.go", ":!*_test.go", ":!internal/script", ":!cmd/gslrun", ":!internal/experiment"},
	},
	{
		name:    "One engine (the second engine, the second replication server and the modeled fan-out sizes stay deleted)",
		pattern: `ShardedOptions|ShardedEngine|NewSharded|OpenSharded|NewServer|replica\.Client|CrossClientDivergence|snapshotBytesPer|msgBytes|syncReplica|ReplicaTable`,
		specs:   []string{"*.go", ":!*_test.go", ":!bench"},
	},
	{
		name:    "One scenario registry (each crowd is declared once in internal/shard/scenario.go; only bench/ still calls its per-crowd views)",
		pattern: `Seed(Mingle|Border|Drifting)(Cluster|Peer)|SeedBorderWorld|SeedConflictWorld|ForEachCrowdSpawn|DriftingCrowdSchema|(Mingle|Border)GhostFields|(Cascade|Mingle|Conflict)PackXML|BorderWritePackXML|scenarioSpeed|scenarioSpecs`,
		specs:   []string{"*.go", ":!*_test.go", ":!bench", ":!internal/shard"},
	},
	{
		name:    "One fan-out path (the hub delivers runs; the per-message client queue, its enqueue and its drain loop stay deleted)",
		pattern: `qmsg|enqueue|qHead`,
		word:    true,
		specs:   []string{"internal/replica/*.go"},
	},
	{
		name:    "One replication input (FeedPump offers the rows the shards own; the change feed, its write-path marks and its taint stay deleted)",
		pattern: `entity\.ChangeFeed|NewChangeFeed|RotateFeed|SealedFeed|FeedEnabled|MarkCol|MarkCell|MarkSpawn|MarkDespawn|Tainted\(`,
		specs:   []string{"*.go", ":!bench"},
	},
	{
		name:    "One apply path, one trigger drain (the row-at-a-time apply, the trigger engine's serial Fire/Drain, host Go rules and the test-only counters stay deleted)",
		pattern: `applyAssignRows|rowApply|UseRowApply|\.Fire\(|\.Drain\(|\.Unregister\(|FiredCount|Rule\.Cond|Rule\.Action|ev\.Fields|host-registered`,
		specs:   []string{"*.go", ":!bench"},
	},
	{
		name:    "One physics path (velocity integrates as a column run in the apply; its effect records and their ordering carve-outs stay deleted)",
		pattern: `physicsSeq|physDelta`,
		specs:   []string{"internal"},
	},
	{
		name:    "One state digest (each world folds its owned rows into world.Digest and the grid adds them; the sorted row hash and its row codec stay deleted)",
		pattern: `hashRow|appendOwnedRows|hashRows|hashValue|appendRowsPayload|decodeRowsPayload`,
		specs:   []string{"internal/shard/*.go", "cmd"},
	},
	{
		name:    "One batched grid move (the world flushes through MoveSlots; the id-addressed batch entry stays deleted)",
		pattern: `MoveBatch`,
		specs:   []string{"internal"},
	},
}

// self is this file, relative to the repository root.
const self = "internal/reach/deleted_test.go"

func TestDeletedNamesStayDeleted(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files, err := repoFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range stayDeleted {
		expr := row.pattern
		if row.word {
			expr = `\b(?:` + expr + `)\b`
		}
		re := regexp.MustCompile(expr)
		inScope := scope(row.specs)
		for _, rel := range files {
			if rel == self || !inScope(rel) {
				continue
			}
			hits, err := grepFile(filepath.Join(root, rel), re)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				t.Errorf("%s: %s:%s", row.name, rel, h)
			}
		}
	}
}

// repoFiles lists every file under root, slash-separated and relative
// to it, skipping directories whose name starts with "." (the git
// directory and build caches).
func repoFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	return out, err
}

// scope compiles specs into a test of whether a path matches one of
// their includes and none of their ":!" excludes. A spec with * or ?
// is a glob whose * also matches /; any other spec matches the path
// itself or a directory holding it.
func scope(specs []string) func(rel string) bool {
	type spec struct {
		exclude bool
		glob    *regexp.Regexp
		path    string
	}
	var compiled []spec
	for _, s := range specs {
		var sp spec
		s, sp.exclude = strings.CutPrefix(s, ":!")
		if strings.ContainsAny(s, "*?") {
			sp.glob = regexp.MustCompile("^" + strings.NewReplacer(`\*`, ".*", `\?`, ".").Replace(regexp.QuoteMeta(s)) + "$")
		} else {
			sp.path = s
		}
		compiled = append(compiled, sp)
	}
	return func(rel string) bool {
		in := false
		for _, sp := range compiled {
			match := rel == sp.path || strings.HasPrefix(rel, sp.path+"/")
			if sp.glob != nil {
				match = sp.glob.MatchString(rel)
			}
			if match && sp.exclude {
				return false
			}
			in = in || match
		}
		return in
	}
}

// grepFile returns "line: text" for each line of path that re matches.
func grepFile(path string, re *regexp.Regexp) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hits []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if re.Match(sc.Bytes()) {
			hits = append(hits, fmt.Sprintf("%d: %s", n, strings.TrimSpace(sc.Text())))
		}
	}
	return hits, sc.Err()
}
