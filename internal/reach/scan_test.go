// Package reach holds the repository's reachability gate. Its tests
// type-check every package the module and the benchmark module build,
// and fail when an export under internal/ has no caller outside a test
// file and is not on the allowlist in testdata/unreferenced.txt. The
// package has no non-test code: the scanner is itself test-only, so it
// adds nothing to the surface it measures.
package reach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// listedPackage is the part of `go list -json` output the scanner reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	Deps       []string
	ImportMap  map[string]string
	Module     *struct {
		Path string
		Dir  string
		Main bool
	}
	Error *struct{ Err string }
}

// finding is one exported object that no non-test file uses.
type finding struct {
	Key string // pkg.Name, pkg.Type.Method or pkg.Type.Field, pkg relative to internal/
	Pos token.Position
}

// goList runs `go list -deps -export -json ./...` in dir. The packages
// come out in dependency order, each after everything it imports.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreferenced type-checks the non-test files of every non-standard
// package that the modules in dirs build (the first is the module whose
// internal/ tree is measured, the rest only count as callers), and
// returns each exported object declared under that internal/ tree that
// none of those files uses, sorted by key. It does not report a method
// that makes its type satisfy an interface (one the modules declare or
// one of the standard packages they import declares), an embedded
// field, or a struct field whose tag names encoding/xml or
// encoding/json, since those are reached without a selector naming
// them.
func unreferenced(dirs ...string) ([]finding, error) {
	var order []*listedPackage
	seen := map[string]bool{}
	mainPath, root := "", ""
	for i, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if i == 0 && p.Module != nil && p.Module.Main {
				mainPath, root = p.Module.Path, p.Module.Dir
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}
	if mainPath == "" {
		return nil, fmt.Errorf("no main module in %s", dirs[0])
	}
	internal := mainPath + "/internal/"

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range order {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	checked := map[string]*types.Package{}
	var measured []*types.Package // the packages under internal/, in order
	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	stdScanned := map[string]bool{}
	// addIfaces indexes the interfaces a package scope declares: all of
	// them for the modules' own packages, the exported ones elsewhere.
	addIfaces := func(scope *types.Scope, own bool) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !own && !tn.Exported() {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !it.IsMethodSet() {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i).Name()
				ifaces[m] = append(ifaces[m], it)
			}
		}
	}
	addIfaces(types.Universe, true)

	for _, p := range order {
		if p.Standard {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo files are not scanned", p.ImportPath)
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		importMap := p.ImportMap
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if to, ok := importMap[path]; ok {
				path = to
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			pkg, err := std.Import(path)
			if err == nil && !stdScanned[path] {
				stdScanned[path] = true
				addIfaces(pkg.Scope(), false)
			}
			return pkg, err
		})}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		addIfaces(pkg.Scope(), true)
		if strings.HasPrefix(p.ImportPath, internal) {
			measured = append(measured, pkg)
		}
		for _, obj := range info.Uses {
			// A generic instance counts as its generic declaration.
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}

	var out []finding
	add := func(obj types.Object, key string) {
		pos := fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		out = append(out, finding{Key: key, Pos: pos})
	}
	for _, pkg := range measured {
		short := strings.TrimPrefix(pkg.Path(), internal)
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				add(obj, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, m.Name(), ifaces) {
					add(m, short+"."+name+"."+m.Name())
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || used[f] || codecTag(st.Tag(i)) {
					continue
				}
				add(f, short+"."+name+"."+f.Name())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// satisfies reports whether method name of named is part of an
// interface in ifaces that named or *named implements.
func satisfies(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces[name] {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// codecTag reports whether a struct tag gives the field an encoding/xml
// or encoding/json name, through which the codec reads it by reflection.
func codecTag(tag string) bool {
	st := reflect.StructTag(tag)
	_, x := st.Lookup("xml")
	_, j := st.Lookup("json")
	return x || j
}
