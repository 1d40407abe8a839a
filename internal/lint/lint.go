// Package lint is the lab's waste-mode static analyzer: a dependency-free
// framework on stdlib go/parser, go/ast, and go/types that enforces the two
// invariant families the rest of the repo only tests after the fact.
//
// The determinism rules guard the modelled plane — the packages whose output
// must be byte-identical run to run (EXPERIMENTS.md): no wall-clock reads,
// no unseeded or time-seeded PRNGs, no map iteration feeding rendered
// output, no fire-and-forget goroutines. The waste rules mirror the
// keynote's ten ways at the source level: locks copied by value (W5),
// growth-by-append data re-movement (W1), per-element formatting (W8),
// adjacent atomics sharing a cache line (W9), one-element channel sends
// (W7), deferred work piling up inside loops (W10).
//
// On top of the intraprocedural rules sits internal/lint/flow: a call graph
// over the module plus per-function concurrency summaries, registered into
// this catalog via Register. Flow rules see a mutex acquired in one function
// guard a field touched in another, so the analyzer covers the
// shared-memory failure classes (lock ordering, guarded fields, goroutine
// leaks, close/WaitGroup imbalance) the intraprocedural rules cannot.
//
// A finding can be acknowledged in place with
//
//	//lint:ignore <rule> <reason>
//
// on the offending line or the line above it; the reason is mandatory and
// the suppression is itself recorded, so wastevet -suppressed and the T11
// experiment can audit what was waved through. A directive that no longer
// suppresses anything is itself a finding (stalewaiver) with an automatic
// fix that deletes it. Findings are sorted and positions are
// module-relative, so reports are byte-stable across runs and checkouts;
// rendering goes through internal/report like every other table in the
// suite, and findings that know their remedy carry a SuggestedFix that
// wastevet -fix applies deterministically.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// TextEdit is one byte-range replacement inside a module file. Old pins the
// bytes the edit expects to replace: an applier must skip the edit when the
// file has drifted, which is what makes repeated -fix runs idempotent.
type TextEdit struct {
	// File is the module-root-relative path, forward slashes.
	File string `json:"file"`
	// Start and End are byte offsets into the file ([Start, End) replaced).
	Start int `json:"start"`
	End   int `json:"end"`
	// Old is the exact text currently occupying [Start, End).
	Old string `json:"old"`
	// New is the replacement text.
	New string `json:"new"`
}

// SuggestedFix is a deterministic remedy for one finding: a set of
// non-overlapping textual edits plus a one-line description.
type SuggestedFix struct {
	Msg   string     `json:"msg"`
	Edits []TextEdit `json:"edits"`
}

// Finding is one rule violation (or suppressed violation) at a position.
type Finding struct {
	// Rule is the reporting rule's name, e.g. "wallclock".
	Rule string `json:"rule"`
	// Waste is the waste mode or invariant the rule guards, e.g. "W9" or
	// "det" for the determinism family.
	Waste string `json:"waste"`
	// File is the module-root-relative path, forward slashes.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Msg says what is wrong and what the remedy is.
	Msg string `json:"msg"`
	// Suppressed marks findings acknowledged by a //lint:ignore directive;
	// Reason carries the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// Fix, when non-nil, is a mechanical remedy wastevet -fix can apply.
	Fix *SuggestedFix `json:"fix,omitempty"`
}

// Pos renders the finding's position as file:line:col.
func (f Finding) Pos() string { return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col) }

// String renders the finding as one grep-friendly line.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s [%s]", f.Pos(), f.Rule, f.Msg, f.Waste)
	if f.Suppressed {
		s += " (suppressed: " + f.Reason + ")"
	}
	if f.Fix != nil {
		s += " (fixable)"
	}
	return s
}

// Rule is one static check. Rules must be deterministic and must report
// positions only inside the package they were handed.
type Rule interface {
	// Name is the short identifier used by -rules and //lint:ignore.
	Name() string
	// Waste is the waste mode (W1..W10) or invariant family ("det") the
	// rule guards.
	Waste() string
	// Doc is a one-line description of what the rule enforces.
	Doc() string
	// Check inspects one loaded package and reports findings.
	Check(p *Package, r *Reporter)
}

// ModuleRule is a Rule whose analysis spans packages: Analyze calls
// CheckModule once with every loaded package instead of Check per package.
// The flow rules implement this — a lock order is only inconsistent across
// the whole call graph, never inside one package viewed alone.
type ModuleRule interface {
	Rule
	CheckModule(pkgs []*Package, r *ModuleReporter)
}

// Config selects rules and scopes the plane-sensitive ones.
type Config struct {
	// Rules enables a subset by name; nil or empty enables every rule.
	Rules []string
	// MeasuredPlane lists import-path fragments where wall-clock reads and
	// math/rand imports are legitimate: the packages that measure the host
	// rather than model the machine. The determinism rules skip packages
	// whose import path contains any fragment.
	MeasuredPlane []string
	// PresentationPlane lists import-path fragments where per-element
	// formatting is the point (table builders, CLIs, examples); the sprintf
	// rule skips them.
	PresentationPlane []string
}

// DefaultConfig scopes the planes the way the repo is laid out: the
// measured plane (trace, sched, obs, core, serve, the commands, the
// examples) may read wall clocks; the presentation plane (report, core,
// waste, tune, the commands, the examples) may format per element.
func DefaultConfig() Config {
	return Config{
		MeasuredPlane: []string{
			"internal/trace", "internal/sched", "internal/obs",
			"internal/core", "internal/serve", "cmd/", "examples/",
		},
		PresentationPlane: []string{
			"internal/report", "internal/core", "internal/waste",
			"internal/tune", "cmd/", "examples/",
		},
	}
}

// inPlane reports whether the package import path matches any fragment.
func inPlane(path string, fragments []string) bool {
	for _, f := range fragments {
		if strings.Contains(path, f) {
			return true
		}
	}
	return false
}

// enabled returns the selected subset of rules, in catalog order.
func (c Config) enabled() ([]Rule, error) {
	all := Rules()
	if len(c.Rules) == 0 {
		return all, nil
	}
	byName := make(map[string]Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	want := make(map[string]bool, len(c.Rules))
	for _, name := range c.Rules {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (known: %s)",
				name, strings.Join(RuleNames(), ", "))
		}
		want[name] = true
	}
	out := make([]Rule, 0, len(want))
	for _, r := range all {
		if want[r.Name()] {
			out = append(out, r)
		}
	}
	return out, nil
}

// Reporter accumulates findings for one package under one rule run.
type Reporter struct {
	pkg      *Package
	rule     Rule
	root     string
	findings *[]Finding
}

// Report records a finding at pos. The message should name the remedy, not
// just the problem.
func (r *Reporter) Report(pos token.Pos, format string, args ...interface{}) {
	r.ReportFix(pos, nil, format, args...)
}

// ReportFix records a finding at pos carrying a suggested fix (nil is
// allowed and equivalent to Report).
func (r *Reporter) ReportFix(pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	p := r.pkg.Fset.Position(pos)
	relFixFiles(r.root, fix)
	*r.findings = append(*r.findings, Finding{
		Rule:  r.rule.Name(),
		Waste: r.rule.Waste(),
		File:  relFile(r.root, p.Filename),
		Line:  p.Line,
		Col:   p.Column,
		Msg:   fmt.Sprintf(format, args...),
		Fix:   fix,
	})
}

// ModuleReporter accumulates findings for a module-level rule run. Unlike
// Reporter it is handed the package per report, since one CheckModule call
// spans them all.
type ModuleReporter struct {
	rule     Rule
	root     string
	findings *[]Finding
}

// Report records a finding at pos inside package p.
func (r *ModuleReporter) Report(p *Package, pos token.Pos, format string, args ...interface{}) {
	r.ReportFix(p, pos, nil, format, args...)
}

// ReportFix records a finding at pos inside package p carrying a suggested
// fix (nil allowed).
func (r *ModuleReporter) ReportFix(p *Package, pos token.Pos, fix *SuggestedFix, format string, args ...interface{}) {
	pp := p.Fset.Position(pos)
	relFixFiles(r.root, fix)
	*r.findings = append(*r.findings, Finding{
		Rule:  r.rule.Name(),
		Waste: r.rule.Waste(),
		File:  relFile(r.root, pp.Filename),
		Line:  pp.Line,
		Col:   pp.Column,
		Msg:   fmt.Sprintf(format, args...),
		Fix:   fix,
	})
}

// relFixFiles relativises a fix's edit paths the way relFile does findings'.
func relFixFiles(root string, fix *SuggestedFix) {
	if fix == nil {
		return
	}
	for i := range fix.Edits {
		fix.Edits[i].File = relFile(root, fix.Edits[i].File)
	}
}

// relFile relativises an absolute filename against the module root.
func relFile(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}

// Result is a completed lint run.
type Result struct {
	// Findings holds every finding, suppressed ones included, sorted by
	// (file, line, col, rule) — a byte-stable order.
	Findings []Finding `json:"findings"`
	Packages int       `json:"packages"`
	Files    int       `json:"files"`
}

// Unsuppressed returns the findings not acknowledged by an ignore
// directive; an empty slice means the tree is clean.
func (res *Result) Unsuppressed() []Finding {
	out := make([]Finding, 0, len(res.Findings))
	for _, f := range res.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Counts returns per-rule totals: all findings and the suppressed subset.
func (res *Result) Counts() (total, suppressed map[string]int) {
	total = make(map[string]int)
	suppressed = make(map[string]int)
	for _, f := range res.Findings {
		total[f.Rule]++
		if f.Suppressed {
			suppressed[f.Rule]++
		}
	}
	return total, suppressed
}

// Run loads the packages matching patterns (see Loader.Load) and applies
// the configured rules. It is the one-call entry point cmd/wastevet and the
// T11 experiment share.
func Run(cfg Config, patterns ...string) (*Result, error) {
	l, err := NewLoader()
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return Analyze(cfg, l.Root(), pkgs)
}

// Analyze applies the configured rules to already-loaded packages. root
// (the module root) relativises finding paths; empty keeps them absolute.
func Analyze(cfg Config, root string, pkgs []*Package) (*Result, error) {
	rules, err := cfg.enabled()
	if err != nil {
		return nil, err
	}
	res := &Result{Packages: len(pkgs)}
	var findings []Finding

	// Directives are indexed up front for the whole load: suppression is
	// applied once after every rule (package-scoped and module-scoped) has
	// reported, and usage is tracked so stalewaiver can name the directives
	// that suppress nothing.
	sup := newSuppressions(pkgs, root, &findings)

	var moduleRules []ModuleRule
	for _, p := range pkgs {
		res.Files += len(p.Files)
		p.cfg = cfg
	}
	for _, rule := range rules {
		if mr, ok := rule.(ModuleRule); ok {
			moduleRules = append(moduleRules, mr)
			continue
		}
		for _, p := range pkgs {
			rule.Check(p, &Reporter{pkg: p, rule: rule, root: root, findings: &findings})
		}
	}
	for _, mr := range moduleRules {
		mr.CheckModule(pkgs, &ModuleReporter{rule: mr, root: root, findings: &findings})
	}
	sup.apply(findings)

	// stalewaiver post-pass: a directive that matched nothing under the
	// rules it could have matched is itself a finding with a delete fix.
	// It runs here rather than as a Rule because it needs the suppression
	// index's usage bits, which exist only after every other rule reported.
	if ruleEnabled(rules, "stalewaiver") {
		enabled := make(map[string]bool, len(rules))
		for _, r := range rules {
			enabled[r.Name()] = true
		}
		start := len(findings)
		sup.reportStale(&findings, enabled)
		// The new findings can themselves be waived (//lint:ignore
		// stalewaiver <reason>), so suppression applies to them too.
		sup.apply(findings[start:])
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	if findings == nil {
		findings = []Finding{} // a clean tree marshals as [], not null
	}
	res.Findings = findings
	return res, nil
}

// ruleEnabled reports whether the enabled set contains a rule by name.
func ruleEnabled(rules []Rule, name string) bool {
	for _, r := range rules {
		if r.Name() == name {
			return true
		}
	}
	return false
}

// directive is one parsed //lint:ignore comment.
type directive struct {
	rule   string
	reason string
	line   int
	file   string // module-relative, matching Finding.File
	pkg    *Package
	pos    token.Pos // comment start
	end    token.Pos // comment end
	used   bool      // matched at least one finding this run
}

// suppressions indexes every package's ignore directives by file and line.
type suppressions struct {
	list  []*directive
	byKey map[string]*directive // "file:line:rule"
	rules map[string]bool       // full catalog names, for unknown-rule staleness
}

// newSuppressions parses every //lint:ignore directive in the packages. A
// directive missing its reason is itself reported as an "ignore" finding —
// undocumented waivers are exactly what the analyzer exists to prevent.
func newSuppressions(pkgs []*Package, root string, findings *[]Finding) *suppressions {
	s := &suppressions{byKey: make(map[string]*directive), rules: make(map[string]bool)}
	for _, r := range Rules() {
		s.rules[r.Name()] = true
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					file := relFile(root, pos.Filename)
					fields := strings.Fields(text)
					if len(fields) < 2 {
						*findings = append(*findings, Finding{
							Rule: "ignore", Waste: "det",
							File: file, Line: pos.Line, Col: pos.Column,
							Msg: "//lint:ignore needs a rule name and a reason: //lint:ignore <rule> <reason>",
						})
						continue
					}
					d := &directive{
						rule:   fields[0],
						reason: strings.Join(fields[1:], " "),
						line:   pos.Line,
						file:   file,
						pkg:    p,
						pos:    c.Pos(),
						end:    c.End(),
					}
					s.list = append(s.list, d)
					// A trailing directive covers its own line; a standalone
					// directive covers the line below. Registering both is
					// harmless and keeps the matcher trivial.
					s.byKey[supKey(file, pos.Line, d.rule)] = d
					s.byKey[supKey(file, pos.Line+1, d.rule)] = d
				}
			}
		}
	}
	return s
}

// apply marks findings covered by a directive as suppressed, in place, and
// marks the matching directives used.
func (s *suppressions) apply(findings []Finding) {
	if len(s.byKey) == 0 {
		return
	}
	for i := range findings {
		f := &findings[i]
		if f.Suppressed || f.Rule == "ignore" {
			continue
		}
		if d, ok := s.byKey[supKey(f.File, f.Line, f.Rule)]; ok {
			f.Suppressed = true
			f.Reason = d.reason
			d.used = true
		}
	}
}

// reportStale emits a stalewaiver finding for every directive that could
// have matched this run but did not: its named rule ran (or names no known
// rule — a typo suppresses nothing forever) and no finding landed under it.
// Directives naming stalewaiver or ignore are never judged — they exist to
// acknowledge the auditor itself.
func (s *suppressions) reportStale(findings *[]Finding, enabled map[string]bool) {
	for _, d := range s.list {
		if d.used || d.rule == "stalewaiver" || d.rule == "ignore" {
			continue
		}
		known := s.rules[d.rule]
		if known && !enabled[d.rule] {
			continue
		}
		why := "the rule reports nothing here any more"
		if !known {
			why = "no such rule exists"
		}
		pos := d.pkg.Fset.Position(d.pos)
		*findings = append(*findings, Finding{
			Rule: "stalewaiver", Waste: "det",
			File: d.file, Line: pos.Line, Col: pos.Column,
			Msg: "//lint:ignore " + d.rule + " suppresses nothing (" + why + "); delete the directive",
			Fix: deleteDirectiveFix(d),
		})
	}
}

// supKey builds the suppression index key without fmt — the analyzer obeys
// its own sprintf rule.
func supKey(file string, line int, rule string) string {
	return file + ":" + strconv.Itoa(line) + ":" + rule
}
