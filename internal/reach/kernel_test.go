package reach

import (
	"path/filepath"
	"strings"
	"testing"
)

// kernel lists the packages under internal/ that the deterministic tick
// runs on. None of them may depend on the network stack: net/netip's
// package init registers a runtime cleanup that allocates on a
// background goroutine after every GC, which the zero-allocation tests'
// MemStats windows would count as the program's. The transports live in
// internal/mesh and the HTTP endpoint in internal/obshttp, outside the
// kernel.
var kernel = []string{"entity", "spatial", "script", "gslplan", "trigger", "sched", "content", "txn", "world", "wire", "obs"}

// TestKernelLinksNoNetwork fails when a kernel package depends on net or
// any package below it, naming the package, and when a kernel entry
// names no package, like a stale allowlist line.
func TestKernelLinksNoNetwork(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := goList(root)
	if err != nil {
		t.Fatal(err)
	}
	deps := map[string][]string{}
	for _, p := range pkgs {
		deps[p.ImportPath] = p.Deps
	}
	for _, name := range kernel {
		path := "gamedb/internal/" + name
		ds, ok := deps[path]
		if !ok {
			t.Errorf("kernel entry %q names no package", name)
			continue
		}
		for _, d := range ds {
			if d == "net" || strings.HasPrefix(d, "net/") {
				t.Errorf("%s depends on %s; keep the network stack in internal/mesh or internal/obshttp", path, d)
			}
		}
	}
}
