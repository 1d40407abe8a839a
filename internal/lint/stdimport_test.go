package lint

import (
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeGOROOT writes files (slash paths under src/) into a fresh GOROOT and
// returns an importer over it that sees neither the real GOROOT nor GOPATH.
func fakeGOROOT(t *testing.T, files map[string]string) *stdImporter {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, "src", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, path, content)
	}
	ctxt := build.Default
	ctxt.GOROOT = root
	ctxt.GOPATH = ""
	return newStdImporter(ctxt, token.NewFileSet())
}

// TestStdImporterCycleFails: an import cycle must come back as an error,
// not leave every package in it waiting on the next.
func TestStdImporterCycleFails(t *testing.T) {
	s := fakeGOROOT(t, map[string]string{
		"a/a.go": "package a\n\nimport _ \"b\"\n",
		"b/b.go": "package b\n\nimport _ \"a\"\n",
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Import("a")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("import cycle a -> b -> a type-checked without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("import cycle a -> b -> a hangs")
	}
}

// TestStdImporterVendor: an import is resolved from the importing
// package's directory, so GOROOT's vendor tree satisfies it.
func TestStdImporterVendor(t *testing.T) {
	s := fakeGOROOT(t, map[string]string{
		"net/n.go":                  "package net\n\nimport \"example.org/x\"\n\nvar V x.T\n",
		"vendor/example.org/x/x.go": "package x\n\ntype T int\n",
	})
	pkg, err := s.Import("net")
	if err != nil {
		t.Fatal(err)
	}
	got := pkg.Scope().Lookup("V").Type().String()
	if want := "vendor/example.org/x.T"; got != want {
		t.Errorf("net.V has type %s, want %s", got, want)
	}
}

// TestStdImporterSkipsTestAndCgoFiles: test files are never listed, so a
// broken one is never read, and with cgo off a file importing "C" is left
// out of the package.
func TestStdImporterSkipsTestAndCgoFiles(t *testing.T) {
	s := fakeGOROOT(t, map[string]string{
		"p/p.go":      "package p\n\nconst Pure = 1\n",
		"p/x_test.go": "package p_test\n\nimport (\n\t\"unterminated\n",
		"p/c.go":      "package p\n\n// int cgo(void) { return 2; }\nimport \"C\"\n\nvar Cgo = C.cgo()\n",
	})
	pkg, err := s.Import("p")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Scope().Lookup("Pure") == nil {
		t.Error("p.Pure missing")
	}
	if pkg.Scope().Lookup("Cgo") != nil {
		t.Error("p.Cgo came from a file that imports \"C\"; cgo files must be excluded")
	}
}

// TestStdImporterConcurrentImportsShare: concurrent Imports of
// overlapping packages check each package once, so every caller and every
// importer sees the same *types.Package.
func TestStdImporterConcurrentImportsShare(t *testing.T) {
	s := fakeGOROOT(t, map[string]string{
		"base/base.go": "package base\n\ntype T int\n",
		"mid/mid.go":   "package mid\n\nimport \"base\"\n\nvar M base.T\n",
		"top1/t.go":    "package top1\n\nimport (\n\t\"base\"\n\t\"mid\"\n)\n\nvar A, B = base.T(1), mid.M\n",
		"top2/t.go":    "package top2\n\nimport \"mid\"\n\nvar C = mid.M\n",
	})
	paths := []string{"top1", "top2", "mid", "base"}
	got := make([][]*types.Package, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range paths {
				pkg, err := s.Import(paths[(i+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = append(got[i], pkg)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	byPath := make(map[string]*types.Package)
	var check func(pkg *types.Package)
	check = func(pkg *types.Package) {
		if prev, ok := byPath[pkg.Path()]; ok {
			if prev != pkg {
				t.Errorf("two *types.Package for %s", pkg.Path())
			}
			return
		}
		byPath[pkg.Path()] = pkg
		for _, imp := range pkg.Imports() {
			check(imp)
		}
	}
	for _, pkgs := range got {
		for _, pkg := range pkgs {
			check(pkg)
		}
	}
	if len(byPath) != len(paths) {
		t.Errorf("saw packages %v, want %v", byPath, paths)
	}
}

// TestStdImporterMatchesSourceImporter: against go/importer's "source"
// importer (cgo on, one go/build.Import per edge), every exported object
// of a few std packages — including the method sets of named types —
// prints the same. net/http reaches GOROOT's vendored golang.org/x/net;
// net and os take different files with cgo off.
func TestStdImporterMatchesSourceImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a slice of GOROOT twice")
	}
	oracle := importer.ForCompiler(token.NewFileSet(), "source", nil)
	s := newStdImporter(build.Default, token.NewFileSet())
	for _, path := range []string{"net/http", "net", "os", "sync/atomic", "reflect", "go/types"} {
		want, err := oracle.Import(path)
		if err != nil {
			t.Fatalf("source importer: %v", err)
		}
		got, err := s.Import(path)
		if err != nil {
			t.Fatalf("stdImporter: %v", err)
		}
		w, g := exportedAPI(want), exportedAPI(got)
		if strings.Join(w, "\n") == strings.Join(g, "\n") {
			continue
		}
		t.Errorf("%s: exported API differs from the source importer's (%d vs %d lines)", path, len(g), len(w))
		for i := 0; i < len(w) || i < len(g); i++ {
			if i >= len(w) || i >= len(g) || w[i] != g[i] {
				t.Errorf("first difference at line %d:\n got %q\nwant %q", i, at(g, i), at(w, i))
				break
			}
		}
	}
}

// exportedAPI lists pkg's exported objects, and the method sets of its
// exported named types and their pointers, one sorted line each.
func exportedAPI(pkg *types.Package) []string {
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		lines = append(lines, types.ObjectString(obj, nil))
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		for _, typ := range []types.Type{obj.Type(), types.NewPointer(obj.Type())} {
			mset := types.NewMethodSet(typ)
			for i := range mset.Len() {
				lines = append(lines, typ.String()+" has "+types.ObjectString(mset.At(i).Obj(), nil))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}
