package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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
	// Types and Info are best-effort: stdlib imports are checked from
	// GOROOT source (declarations only, once per package, without cgo) and
	// repo imports from the module, but a failed import degrades to a stub
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
// function bodies and comments. Stdlib packages are checked from GOROOT
// source once per package for the Loader's lifetime, independent ones
// concurrently, with cgo off; see stdImporter.
type Loader struct {
	fset    *token.FileSet
	root    string // module root (dir containing go.mod)
	module  string // module path from go.mod
	std     *stdImporter
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
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		module:  module,
		std:     newStdImporter(build.Default, fset),
		checked: make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
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
// rule fixtures are checked). Results come back sorted by import path.
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

// loadDir parses and type-checks one directory. Returns nil (no error) for
// directories without non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	if p, ok := l.checked[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !isGoSource(e) {
			continue
		}
		// The stdlib's build context picks repo files too, so one rule
		// (build constraints, GOOS/GOARCH file suffixes, cgo off) decides
		// every file the loader reads.
		if ok, err := l.std.ctxt.MatchFile(dir, e.Name()); err != nil {
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
	if len(files) == 0 {
		return nil, nil
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
	p.Types, _ = conf.Check(p.ImportPath, l.fset, files, info)
	p.Info = info
	l.checked[dir] = p
	return p, nil
}

// moduleImporter resolves repo-internal imports through the Loader and
// everything else through the GOROOT source importer, degrading to an empty
// stub package when either fails.
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
	if pkg, err := l.std.Import(path); err == nil && pkg != nil {
		return pkg, nil
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
