package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// stdImporter type-checks GOROOT packages from source for the Loader. Each
// package is read and checked exactly once for the importer's lifetime:
// every import edge is resolved with a FindOnly lookup (vendor-aware, a few
// directory stats) to the package's future, and the first edge to reach a
// package starts its check in a goroutine of its own, so independent
// packages are checked concurrently. Cgo is off, so no package runs the cgo
// tool and files importing "C" are left out, and the directory listing
// holds only non-test .go files, so test files are never read.
type stdImporter struct {
	ctxt  build.Context
	fset  *token.FileSet
	sizes types.Sizes
	// sem bounds the packages parsing or type-checking at once. It is held
	// around parse+check only, never while waiting on another package:
	// a holder that waited could block the very packages it waits for.
	sem chan struct{}

	mu   sync.Mutex
	pkgs map[string]*stdPkg // by resolved import path
}

// stdPkg is one package's future: done is closed once types or err is set.
type stdPkg struct {
	done  chan struct{}
	deps  map[string]*stdPkg // its imports, recorded under stdImporter.mu before it waits on them
	types *types.Package
	err   error
}

// newStdImporter returns an importer over ctxt's GOROOT with cgo turned off
// and test files hidden from the directory listing. Positions go to fset.
func newStdImporter(ctxt build.Context, fset *token.FileSet) *stdImporter {
	ctxt.CgoEnabled = false
	ctxt.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		infos := make([]fs.FileInfo, 0, len(entries))
		for _, e := range entries {
			if !isGoSource(e) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			infos = append(infos, info)
		}
		return infos, nil
	}
	return &stdImporter{
		ctxt:  ctxt,
		fset:  fset,
		sizes: types.SizesFor("gc", ctxt.GOARCH),
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		pkgs:  make(map[string]*stdPkg),
	}
}

// isGoSource reports whether e is a non-test .go file.
func isGoSource(e fs.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// Import returns the checked package at path, after checking everything it
// imports that no earlier Import has checked. It is safe for concurrent use.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	p, err := s.future(path, "")
	if err != nil {
		return nil, err
	}
	<-p.done
	return p.types, p.err
}

// future resolves path, as imported from the package in srcDir, to its
// package's future, starting the package's check on first sight.
func (s *stdImporter) future(path, srcDir string) (*stdPkg, error) {
	bp, err := s.ctxt.Import(path, srcDir, build.FindOnly)
	if err != nil {
		return nil, err
	}
	key, dir := bp.ImportPath, bp.Dir
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pkgs[key]
	if p == nil {
		p = &stdPkg{done: make(chan struct{})}
		s.pkgs[key] = p
		go func() {
			defer close(p.done)
			p.types, p.err = s.check(p, key, dir)
		}()
	}
	return p, nil
}

// check lists the package in dir, waits for its imports, then parses its
// files and type-checks their declarations. Any error, its own or an
// import's, fails the package.
func (s *stdImporter) check(p *stdPkg, key, dir string) (*types.Package, error) {
	bp, err := s.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	// go/types asks for "unsafe" like any import, but it is built in.
	imported := pkgMap{"unsafe": types.Unsafe}
	deps := make(map[string]*stdPkg, len(bp.Imports))
	for _, path := range bp.Imports {
		if path == "unsafe" {
			continue
		}
		if deps[path], err = s.future(path, dir); err != nil {
			return nil, err
		}
	}
	if s.closesCycle(p, deps) {
		return nil, fmt.Errorf("lint: import cycle through %s", key)
	}
	for _, path := range bp.Imports { // in order, so the error reported is always the same
		d := deps[path]
		if d == nil {
			continue // unsafe
		}
		<-d.done
		if d.err != nil {
			return nil, d.err
		}
		imported[path] = d.types
	}

	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	files := make([]*ast.File, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		if files[i], err = parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	conf := types.Config{IgnoreFuncBodies: true, Importer: imported, Sizes: s.sizes}
	return conf.Check(key, s.fset, files, nil)
}

// closesCycle records p's imports and reports whether one of them waits,
// directly or through other unfinished packages, on p. Every package
// records its imports here before waiting on them, so the last package of
// an import cycle to arrive sees the whole cycle and fails instead of
// waiting forever.
func (s *stdImporter) closesCycle(p *stdPkg, deps map[string]*stdPkg) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.deps = deps
	seen := make(map[*stdPkg]bool)
	stack := make([]*stdPkg, 0, len(deps))
	for _, d := range deps {
		stack = append(stack, d)
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d == p {
			return true
		}
		if seen[d] {
			continue
		}
		seen[d] = true
		select {
		case <-d.done:
			continue // finished packages wait on nothing
		default:
		}
		for _, dd := range d.deps {
			stack = append(stack, dd)
		}
	}
	return false
}

// pkgMap is the importer a package is checked with: its imports, already
// checked, by the path its files import them under.
type pkgMap map[string]*types.Package

func (m pkgMap) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("lint: %s was not resolved", path)
}
