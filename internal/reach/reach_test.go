package reach

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportsAreReached is the reachability gate: every export under
// internal/ has a caller outside test files (bench/, cmd/ and examples/
// count) or a line in testdata/unreferenced.txt saying why not. A line
// whose export is now used or gone fails too, so the list stays exact.
// To update it, delete what the failure names or add
// "pkg.Name — reason" in key order.
func TestExportsAreReached(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	found, err := unreferenced(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist("testdata/unreferenced.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		if _, ok := allowed[f.Key]; ok {
			delete(allowed, f.Key)
			continue
		}
		t.Errorf("%s:%d: %s has no caller outside tests; use it, delete it, or add it to testdata/unreferenced.txt with a reason",
			f.Pos.Filename, f.Pos.Line, f.Key)
	}
	stale := make([]string, 0, len(allowed))
	for key := range allowed {
		stale = append(stale, key)
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("testdata/unreferenced.txt:%d: %s is used outside tests now, or gone; delete the line", allowed[key], key)
	}
	t.Logf("%d exports under internal/ have no caller outside tests", len(found))
}

// readAllowlist reads "pkg.Name — reason" lines, skipping blank lines
// and # comments, and returns each key's line number.
func readAllowlist(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name — reason\"", path, n)
		}
		if _, dup := keys[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, key)
		}
		keys[key] = n
	}
	return keys, sc.Err()
}

// TestScannerOnFixture runs the scanner over a two-module fixture:
// testdata/fixture/lib (the measured module) and testdata/fixture/ext,
// which stands in for bench/ as a second module of callers.
func TestScannerOnFixture(t *testing.T) {
	found, err := unreferenced("testdata/fixture/lib", "testdata/fixture/ext")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.Key)
	}
	want := []string{"p.TestOnly", "p.Unreferenced"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreferenced = %v, want %v", got, want)
	}
	if pos := found[0].Pos; pos.Filename != "internal/p/p.go" || pos.Line != 17 {
		t.Errorf("p.TestOnly at %s:%d, want internal/p/p.go:17", pos.Filename, pos.Line)
	}
}
