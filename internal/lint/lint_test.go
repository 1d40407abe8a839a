package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tenways/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixtureLoader is shared across tests so stdlib packages type-check once.
var fixtureLoader *Loader

func TestMain(m *testing.M) {
	flag.Parse()
	var err error
	fixtureLoader, err = NewLoaderAt(".")
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// loadFixture loads one rule's fixture package from testdata/src.
func loadFixture(t *testing.T, rule string) []*Package {
	t.Helper()
	pkgs, err := fixtureLoader.Load(filepath.Join("testdata", "src", rule))
	if err != nil {
		t.Fatalf("load fixture %s: %v", rule, err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 3 {
		t.Fatalf("fixture %s: want 1 package with bad/clean/suppressed, got %+v", rule, pkgs)
	}
	return pkgs
}

// TestRuleFixtures runs every rule alone over its fixture package and pins
// the findings against a golden file. Structure is also asserted directly:
// bad.go must trigger, clean.go must not, and every finding in
// suppressed.go must be acknowledged with a reason.
func TestRuleFixtures(t *testing.T) {
	for _, rule := range Rules() {
		name := rule.Name()
		t.Run(name, func(t *testing.T) {
			pkgs := loadFixture(t, name)
			cfg := DefaultConfig()
			cfg.Rules = []string{name}
			res, err := Analyze(cfg, fixtureLoader.Root(), pkgs)
			if err != nil {
				t.Fatal(err)
			}

			var badHits, cleanHits, supUnacked int
			for _, f := range res.Findings {
				if f.Rule != name {
					t.Errorf("finding from foreign rule %q under -rules %s: %s", f.Rule, name, f)
				}
				switch filepath.Base(f.File) {
				case "bad.go":
					badHits++
					if f.Suppressed {
						t.Errorf("bad.go finding unexpectedly suppressed: %s", f)
					}
				case "clean.go":
					cleanHits++
				case "suppressed.go":
					if !f.Suppressed {
						supUnacked++
					} else if f.Reason == "" {
						t.Errorf("suppressed finding has empty reason: %s", f)
					}
				}
			}
			if badHits == 0 {
				t.Error("bad.go triggered no findings")
			}
			if cleanHits != 0 {
				t.Errorf("clean.go triggered %d findings", cleanHits)
			}
			if supUnacked != 0 {
				t.Errorf("suppressed.go has %d unacknowledged findings", supUnacked)
			}

			var b strings.Builder
			for _, f := range res.Findings {
				b.WriteString(f.String())
				b.WriteByte('\n')
			}
			goldenPath := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("findings differ from golden %s:\ngot:\n%swant:\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestReportByteStable analyzes all fixtures twice through two independent
// loaders and requires byte-identical output from every renderer — the same
// invariant the repo's experiment tables carry (EXPERIMENTS.md).
func TestReportByteStable(t *testing.T) {
	render := func(t *testing.T) []byte {
		t.Helper()
		l, err := NewLoaderAt(".")
		if err != nil {
			t.Fatal(err)
		}
		dirs := make([]string, 0, len(Rules()))
		for _, r := range Rules() {
			dirs = append(dirs, filepath.Join("testdata", "src", r.Name()))
		}
		pkgs, err := l.Load(dirs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(DefaultConfig(), l.Root(), pkgs)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, f := range res.Findings {
			buf.WriteString(f.String())
			buf.WriteByte('\n')
		}
		for _, r := range []report.Renderer{report.ASCII{}, report.Markdown{}, report.CSV{}, report.JSON{}} {
			if err := r.Table(&buf, CatalogTable("LINT", "fixture catalog", res)); err != nil {
				t.Fatal(err)
			}
		}
		buf.WriteString(Summary(res))
		return buf.Bytes()
	}
	a, b := render(t), render(t)
	if !bytes.Equal(a, b) {
		t.Error("two independent runs rendered different bytes")
	}
	if len(a) == 0 {
		t.Error("rendered report is empty")
	}
}

// TestIgnoreWithoutReason builds a synthetic module in a temp dir: a bare
// //lint:ignore directive must become an "ignore" meta-finding and must NOT
// suppress the violation on the next line.
func TestIgnoreWithoutReason(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixturemod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "clock.go"), `package fixturemod

import "time"

func Tick() int64 {
	//lint:ignore wallclock
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
	res, err := Analyze(DefaultConfig(), l.Root(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var meta, wallclock int
	for _, f := range res.Findings {
		switch f.Rule {
		case "ignore":
			meta++
		case "wallclock":
			wallclock++
			if f.Suppressed {
				t.Errorf("reasonless directive suppressed a finding: %s", f)
			}
		}
	}
	if meta != 1 {
		t.Errorf("got %d ignore meta-findings, want 1", meta)
	}
	if wallclock != 1 {
		t.Errorf("got %d wallclock findings, want 1", wallclock)
	}
}

// TestUnknownRule pins the -rules validation error.
func TestUnknownRule(t *testing.T) {
	_, err := Analyze(Config{Rules: []string{"nosuchrule"}}, "", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown rule") {
		t.Errorf("want unknown-rule error, got %v", err)
	}
}

// TestRuleNamesUnique guards the suppression matcher's assumption that rule
// names are distinct, and that every rule maps to the determinism family or
// a waste mode.
func TestRuleNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range Rules() {
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
		if w := r.Waste(); w != "det" && !strings.HasPrefix(w, "W") {
			t.Errorf("rule %s has unrecognised waste tag %q", r.Name(), w)
		}
		if r.Doc() == "" {
			t.Errorf("rule %s has no doc line", r.Name())
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
