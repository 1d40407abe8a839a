package lint

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// writeFileIn writes content to dir/sub/name, creating sub first.
func writeFileIn(t *testing.T, dir, sub, name, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, sub, name), content)
}

// TestRuleNamesSorted pins the catalog listing order: the unknown-rule error
// embeds RuleNames(), and a scrambled list makes that error (and -list
// output) unstable across builds.
func TestRuleNamesSorted(t *testing.T) {
	names := RuleNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("RuleNames() not sorted: %v", names)
	}
	_, err := Analyze(Config{Rules: []string{"zzz-nosuch"}}, "", nil)
	if err == nil {
		t.Fatal("want unknown-rule error")
	}
	if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("unknown-rule error does not list the sorted catalog:\n%v", err)
	}
}

// TestLoadSkipsBuildTagExcludedFiles: the loader picks files the way
// `go build` does. A file constrained to another OS, or named for one, or
// needing a future release must not be parsed into the package — its
// syntax may not even be valid here, and its findings would be noise — and
// a file constrained to a tag that holds here (unix) must be.
func TestLoadSkipsBuildTagExcludedFiles(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module tagmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "portable.go"), "package tagmod\n\nfunc Portable() int { return 1 }\n")
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	writeFile(t, filepath.Join(dir, "other.go"),
		"//go:build "+otherOS+"\n\npackage tagmod\n\nfunc Other() int { return 2 }\n")
	writeFile(t, filepath.Join(dir, "ignored.go"),
		"//go:build ignore\n\npackage main\n\nfunc main() {}\n")
	writeFile(t, filepath.Join(dir, "matching.go"),
		"//go:build "+runtime.GOOS+" && go1.1\n\npackage tagmod\n\nfunc Matching() int { return 3 }\n")
	writeFile(t, filepath.Join(dir, "future.go"),
		"//go:build go1.99\n\npackage tagmod\n\nfunc Future() int { return 4 }\n")
	writeFile(t, filepath.Join(dir, "named_"+otherOS+".go"), "package tagmod\n\nfunc Named() int { return 5 }\n")
	writeFile(t, filepath.Join(dir, "unix.go"),
		"//go:build unix\n\npackage tagmod\n\nfunc Unix() int { return 6 }\n")

	l, err := NewLoaderAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename))
	}
	sort.Strings(names)
	want := []string{"matching.go", "portable.go"}
	if runtime.GOOS != "windows" {
		want = append(want, "unix.go")
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("loaded files %v, want %v", names, want)
	}
}

// TestLoadAllExcludedDirIsSkipped: a directory whose every file is excluded
// by build tags must vanish from the load, not surface as an empty package.
func TestLoadAllExcludedDirIsSkipped(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module tagmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a.go"), "package tagmod\n\nfunc A() {}\n")
	writeFileIn(t, dir, "excluded", "x.go", "//go:build ignore\n\npackage excluded\n\nfunc X() {}\n")

	l, err := NewLoaderAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(dir, "..."))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "tagmod" {
		t.Fatalf("got %d packages %+v, want just tagmod", len(pkgs), pkgs)
	}
}

// TestLoadSkipsTestdataAndHiddenDirs: the recursive walk must not descend
// into testdata, vendor, or dot/underscore directories — but naming a
// testdata directory explicitly must still load it (the fixture mechanism).
func TestLoadSkipsTestdataAndHiddenDirs(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module walkmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a.go"), "package walkmod\n\nfunc A() {}\n")
	for _, sub := range []string{"testdata", "vendor", ".hidden", "_skip"} {
		writeFileIn(t, dir, sub, "x.go", "package x\n\nfunc X() {}\n")
	}

	l, err := NewLoaderAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(dir, "..."))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "walkmod" {
		t.Fatalf("recursive walk loaded %d packages, want just walkmod", len(pkgs))
	}

	// Explicitly naming the testdata directory still loads it.
	tds, err := l.Load(filepath.Join(dir, "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 1 || len(tds[0].Files) != 1 {
		t.Fatalf("explicit testdata load got %+v, want the one package", tds)
	}
}

// TestLoadToleratesTypeErrors: a package that does not type-check (unknown
// import, type mismatch) must still load with its AST intact and the
// diagnostics recorded — rules degrade, the analyzer does not crash.
func TestLoadToleratesTypeErrors(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module brokemod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "broken.go"), `package brokemod

import (
	"time"

	"github.com/nosuch/dependency"
)

func Broken() int64 {
	dependency.Use()
	var s string = 42
	_ = s
	return time.Now().UnixNano()
}
`)
	l, err := NewLoaderAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.TypeErrors) == 0 {
		t.Error("expected recorded type errors, got none")
	}
	if p.Types == nil || p.Info == nil {
		t.Error("degraded package lost its (partial) type information")
	}

	// Rules still run over the degraded package: the wallclock read is found.
	res, err := Analyze(Config{Rules: []string{"wallclock"}}, l.Root(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 || res.Findings[0].Rule != "wallclock" {
		t.Errorf("rules did not run over the degraded package: %+v", res.Findings)
	}
}

// TestLoadStubsUnresolvableImports: the module importer degrades missing
// imports to a named stub so checking continues around them.
func TestLoadStubsUnresolvableImports(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module stubmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "uses.go"), `package stubmod

import "stubmod/missing"

func Use() { missing.Call() }
`)
	l, err := NewLoaderAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if pkgs[0].Types == nil {
		t.Error("stubbed import still produced a nil types.Package")
	}
}

// TestStdExportDataMatchesSourceImporter: against go/importer's "source"
// importer (GOROOT source, one go/build.Import per edge), every exported
// object of a few std packages — including the method sets of named types —
// prints the same when read from the compiler's export data. net/http
// reaches GOROOT's vendored golang.org/x/net; net and os hold cgo files.
func TestStdExportDataMatchesSourceImporter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a slice of GOROOT from source")
	}
	oracle := importer.ForCompiler(token.NewFileSet(), "source", nil)
	l, err := NewLoader()
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"net/http", "net", "os", "sync/atomic", "reflect", "go/types"}
	l.listExports(paths)
	for _, path := range paths {
		want, err := oracle.Import(path)
		if err != nil {
			t.Fatalf("source importer: %v", err)
		}
		got, err := l.std.Import(path)
		if err != nil {
			t.Fatalf("export data: %v", err)
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

// TestLoadModuleTypeChecks loads the whole module as T11 does and demands
// that no package records a type error. A std import without export data
// degrades to an empty stub, which thins the rules' type information
// without failing anything else; here it shows up as "undefined" errors.
// The walk also loads the nested cmd/tenbench module, whose std imports a
// listing of the root module alone would miss.
func TestLoadModuleTypeChecks(t *testing.T) {
	l, err := NewLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.Root() + "/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, err := range p.TypeErrors {
			t.Errorf("%s: %v", p.ImportPath, err)
		}
	}
}
