package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, best-effort type-checked package.
type Package struct {
	// Dir is the absolute directory, ImportPath the module-qualified path
	// (falls back to the directory when outside the module).
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	// Files are the non-test source files, sorted by filename.
	Files []*ast.File
	// Types and Info are best-effort: stdlib imports are read from the
	// compiler's export data in the build cache and repo imports are
	// checked from the module, but a failed import degrades to a stub
	// rather than failing the load, so rules must treat missing type
	// information as "unknown", not as proof.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check diagnostics (informational only).
	TypeErrors []error
	// Src holds each file's raw bytes, keyed by the absolute filename as
	// recorded in Fset — fix builders slice it to pin the text their edits
	// replace.
	Src map[string][]byte

	cfg     Config
	imports map[*ast.File]map[string]string // local name -> import path
}

// Loader parses and type-checks packages inside one module. It may be used
// for several Load calls. Repo packages are loaded one at a time, with
// function bodies and comments. Stdlib packages are not checked at all:
// their types come from the export data the compiler wrote to the build
// cache, located by one `go list` per Load (see listExports) and read once
// per package for the Loader's lifetime.
type Loader struct {
	fset    *token.FileSet
	root    string        // module root (dir containing go.mod)
	module  string        // module path from go.mod
	ctxt    build.Context // picks repo files as go build does, with cgo off
	std     types.Importer
	exports map[string]string   // std import path -> export data file, "" if go list gave none
	parsed  map[string]*Package // by absolute dir, parsed by Load but not yet checked
	checked map[string]*Package // by absolute dir
	loading map[string]bool     // import-cycle guard
}

// NewLoader locates the enclosing module from the working directory.
func NewLoader() (*Loader, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	return NewLoaderAt(wd)
}

// NewLoaderAt locates the module enclosing dir.
func NewLoaderAt(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, module, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	// With cgo off a file importing "C" is left out of its package, as
	// go/types cannot check it.
	ctxt := build.Default
	ctxt.CgoEnabled = false
	l := &Loader{
		fset:    token.NewFileSet(),
		root:    root,
		module:  module,
		ctxt:    ctxt,
		exports: make(map[string]string),
		parsed:  make(map[string]*Package),
		checked: make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.openExport)
	return l, nil
}

// Root returns the module root directory.
func (l *Loader) Root() string { return l.root }

// Module returns the module path from go.mod.
func (l *Loader) Module() string { return l.module }

// findModule walks up from dir to the first go.mod and parses its module
// path.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(name), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves patterns into package directories and loads each. A
// pattern is a directory, or a directory suffixed "/..." for a recursive
// walk; the walk skips testdata, vendor, and dot/underscore directories
// (naming a testdata directory explicitly still loads it, which is how the
// rule fixtures are checked). Every new directory is parsed before any is
// checked, so one `go list` finds the export data of all their std imports.
// Results come back sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			dirSet[abs] = true
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				dirSet[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if _, ok := l.checked[d]; ok {
			continue
		}
		p, err := l.parseDir(d)
		if err != nil {
			return nil, err
		}
		l.parsed[d] = p
	}
	l.listExports(l.stdImports())
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if isGoSource(e) {
			return true, nil
		}
	}
	return false, nil
}

// importPathFor maps a directory to its module-qualified import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// isGoSource reports whether e is a non-test .go file.
func isGoSource(e fs.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// loadDir parses and type-checks one directory, reusing Load's parse of it.
// Returns nil (no error) for directories without non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	if p, ok := l.checked[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	p, ok := l.parsed[dir]
	if !ok {
		var err error
		if p, err = l.parseDir(dir); err != nil {
			return nil, err
		}
	}
	delete(l.parsed, dir)
	if p != nil {
		l.check(p)
	}
	l.checked[dir] = p
	return p, nil
}

// parseDir parses the files of one directory that go build would compile,
// with comments. Returns nil (no error) when there are none.
func (l *Loader) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !isGoSource(e) {
			continue
		}
		if ok, err := l.ctxt.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		} else if ok {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	src := make(map[string][]byte, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		f, err := parser.ParseFile(l.fset, path, data, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
		src[path] = data
	}
	p := &Package{
		Dir:        dir,
		ImportPath: l.importPathFor(dir),
		Fset:       l.fset,
		Files:      files,
		Src:        src,
		imports:    make(map[*ast.File]map[string]string),
	}
	for _, f := range files {
		p.imports[f] = importTable(f)
	}
	return p, nil
}

// check type-checks p into p.Types and p.Info.
func (l *Loader) check(p *Package) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l},
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check never hard-fails the load: an unresolved import or a type error
	// in one package must not stop the analyzer, it just thins the type
	// information the rules can lean on.
	p.Types, _ = conf.Check(p.ImportPath, l.fset, p.Files, info)
	p.Info = info
}

// isStd reports whether path, imported from this module, names a standard
// library package: its first element has no dot, and it is not the module's.
func (l *Loader) isStd(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".") && path != l.module && !strings.HasPrefix(path, l.module+"/")
}

// stdImports lists, sorted, the std imports of the parsed packages that no
// earlier go list has been asked about.
func (l *Loader) stdImports() []string {
	set := make(map[string]bool)
	for _, p := range l.parsed {
		if p == nil {
			continue
		}
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if _, listed := l.exports[path]; err == nil && !listed && l.isStd(path) {
					set[path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(set))
	for path := range set {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// listExports asks `go list` once where the compiler's export data for
// paths and everything they import lies. It runs in the module root with
// this process's environment, so the files are the ones go build cached
// (on a cold cache go list compiles them first). Each path is recorded
// even when go list gives no file for it, so it is asked about only once;
// an import without export data degrades to a stub.
func (l *Loader) listExports(paths []string) {
	if len(paths) == 0 {
		return
	}
	for _, path := range paths {
		l.exports[path] = ""
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-f",
		"{{if .Standard}}{{.ImportPath}}\t{{.Export}}{{end}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.root
	out, _ := cmd.Output() // with -e, packages that fail just have no Export
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			l.exports[path] = file
		}
	}
}

// openExport is the std importer's lookup. An import that no Load listed,
// such as a std import of a module package beyond Load's patterns, gets a
// go list of its own.
func (l *Loader) openExport(path string) (io.ReadCloser, error) {
	if _, listed := l.exports[path]; !listed {
		l.listExports([]string{path})
	}
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %s", path)
	}
	return os.Open(file)
}

// moduleImporter resolves repo-internal imports through the Loader and std
// imports through the export-data importer, degrading to an empty stub
// package when either fails and for any other import.
type moduleImporter struct {
	l *Loader
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		dir := filepath.Join(l.root, filepath.FromSlash(rel))
		p, err := l.loadDir(dir)
		if err == nil && p != nil && p.Types != nil {
			return p.Types, nil
		}
		return stubPackage(path), nil
	}
	if l.isStd(path) {
		if pkg, err := l.std.Import(path); err == nil && pkg != nil {
			return pkg, nil
		}
	}
	return stubPackage(path), nil
}

// stubPackage is the degraded form of an unresolvable import: named,
// complete, and empty, so type checking continues around it.
func stubPackage(path string) *types.Package {
	base := path
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	p := types.NewPackage(path, base)
	p.MarkComplete()
	return p
}

// importTable maps a file's local import names to import paths. Dot and
// blank imports are omitted.
func importTable(f *ast.File) map[string]string {
	t := make(map[string]string, len(f.Imports))
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
			if name == "." || name == "_" {
				continue
			}
		}
		t[name] = path
	}
	return t
}
