package lint

import (
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureModule writes a small module with one fixable finding per fix-aware
// rule: a prealloc growth loop with knowable capacity, adjacent atomics, and
// a stale //lint:ignore directive.
func fixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "grow.go"), `package fixmod

func Grow(xs []int) []int {
	out := []int{}
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}
`)
	writeFile(t, filepath.Join(dir, "pad.go"), `package fixmod

import "sync/atomic"

type Stats struct {
	hits   atomic.Int64
	misses atomic.Int64
}
`)
	writeFile(t, filepath.Join(dir, "stale.go"), `package fixmod

//lint:ignore nosuchrule this suppresses nothing at all
func Stale() int {
	return 1
}
`)
	return dir
}

func analyzeDir(t *testing.T, dir string) *Result {
	t.Helper()
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
	return res
}

// fixableFindings returns the unsuppressed findings carrying a suggested
// fix: the work list of wastevet -fix.
func fixableFindings(res *Result) []Finding {
	var out []Finding
	for _, f := range res.Findings {
		if !f.Suppressed && f.Fix != nil {
			out = append(out, f)
		}
	}
	return out
}

// TestApplyFixesEndToEnd runs the whole -fix pipeline on a synthetic module:
// every fixable finding is applied, the re-analyzed tree has no fixable
// findings left, and a second apply changes nothing (idempotency).
func TestApplyFixesEndToEnd(t *testing.T) {
	dir := fixtureModule(t)
	res := analyzeDir(t, dir)
	fixable := fixableFindings(res)
	if len(fixable) != 3 {
		for _, f := range fixable {
			t.Logf("fixable: %s", f)
		}
		t.Fatalf("got %d fixable findings, want 3 (prealloc, atomicpad, stalewaiver)", len(fixable))
	}

	out, err := ApplyFixes(dir, res.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 3 || out.Skipped != 0 {
		t.Fatalf("applied=%d skipped=%d, want 3/0", out.Applied, out.Skipped)
	}
	if err := WriteFixes(dir, out); err != nil {
		t.Fatal(err)
	}

	grown, err := os.ReadFile(filepath.Join(dir, "grow.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(grown), "out := make([]int, 0, len(xs))") {
		t.Errorf("prealloc fix not applied:\n%s", grown)
	}
	padded, err := os.ReadFile(filepath.Join(dir, "pad.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(padded), "_ [56]byte\n\tmisses") {
		t.Errorf("atomicpad fix not applied:\n%s", padded)
	}
	staled, err := os.ReadFile(filepath.Join(dir, "stale.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(staled), "lint:ignore") {
		t.Errorf("stale directive not deleted:\n%s", staled)
	}

	res2 := analyzeDir(t, dir)
	if left := fixableFindings(res2); len(left) != 0 {
		for _, f := range left {
			t.Errorf("fixable finding survived -fix: %s", f)
		}
	}
	out2, err := ApplyFixes(dir, res2.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Applied != 0 || len(out2.Changed) != 0 {
		t.Errorf("second apply changed files: applied=%d changed=%d", out2.Applied, len(out2.Changed))
	}
}

// TestApplyFixesDeterministic pins byte-identical output across two
// independent analyze+apply runs over the same tree.
func TestApplyFixesDeterministic(t *testing.T) {
	dir := fixtureModule(t)
	run := func() map[string][]byte {
		res := analyzeDir(t, dir)
		out, err := ApplyFixes(dir, res.Findings)
		if err != nil {
			t.Fatal(err)
		}
		return out.Changed
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("changed-file sets differ: %d vs %d", len(a), len(b))
	}
	for f, data := range a {
		if string(b[f]) != string(data) {
			t.Errorf("%s differs between runs", f)
		}
	}
}

// TestApplyFixesSkipsDriftAndOverlap exercises the applier's safety rails
// directly with synthetic edits.
func TestApplyFixesSkipsDriftAndOverlap(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "f.txt"), "abcdef\n")
	mk := func(start, end int, old, new string) Finding {
		return Finding{Rule: "test", Fix: &SuggestedFix{Edits: []TextEdit{
			{File: "f.txt", Start: start, End: end, Old: old, New: new},
		}}}
	}
	out, err := ApplyFixes(dir, []Finding{
		mk(0, 2, "ab", "AB"), // applies
		mk(1, 3, "bc", "XX"), // overlaps the first: skipped
		mk(3, 4, "Q", "Z"),   // drifted (file holds "d"): skipped
		mk(4, 5, "e", "E"),   // applies
		mk(4, 5, "e", "E"),   // identical duplicate: collapsed
		mk(9, 10, "x", "y"),  // out of range: skipped
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 2 || out.Skipped != 3 {
		t.Fatalf("applied=%d skipped=%d, want 2/3", out.Applied, out.Skipped)
	}
	if got := string(out.Changed["f.txt"]); got != "ABcdEf\n" {
		t.Errorf("result %q, want %q", got, "ABcdEf\n")
	}
	// Suppressed findings must never be applied.
	sup := mk(0, 2, "ab", "AB")
	sup.Suppressed = true
	out2, err := ApplyFixes(dir, []Finding{sup})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Applied != 0 {
		t.Error("suppressed finding's fix was applied")
	}
}

// TestDiffFixes pins the dry-run diff shape: file header with the first
// changed line, old lines prefixed "-", new lines "+".
func TestDiffFixes(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "f.txt"), "one\ntwo\nthree\n")
	out, err := ApplyFixes(dir, []Finding{{Rule: "test", Fix: &SuggestedFix{Edits: []TextEdit{
		{File: "f.txt", Start: 4, End: 7, Old: "two", New: "TWO"},
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := DiffFixes(dir, out)
	if err != nil {
		t.Fatal(err)
	}
	want := "--- f.txt:2\n-two\n+TWO\n"
	if diff != want {
		t.Errorf("diff = %q, want %q", diff, want)
	}
}

// FuzzApplyFixes feeds ApplyFixes random file bytes and edit lists. Each
// four bytes of spec are one edit, as one finding: a start offset and a
// length, both signed so ranges fall before, across and past the file; a
// replacement from a small set, so identical edits recur; and whether Old
// pins the file's text or a drifted one. ApplyFixes must not panic, must
// give the same outcome for the findings in reverse, and its result must
// be the file with Applied of the edits substituted — pinned, inside the
// file, not overlapping — so every byte outside them survives in order.
// The seed corpus in testdata/fuzz/FuzzApplyFixes covers overlap, drift,
// duplicates, negative starts, insertions at one offset and an empty file.
func FuzzApplyFixes(f *testing.F) {
	const maxEdits = 8
	f.Fuzz(func(t *testing.T, src, spec []byte) {
		var edits []TextEdit
		for i := 0; i+3 < len(spec) && len(edits) < maxEdits; i += 4 {
			e := TextEdit{File: "f.go", Start: int(int8(spec[i]))}
			e.End = e.Start + int(int8(spec[i+1]))
			e.New = []string{"", "A", "BB", "\n"}[spec[i+2]%4]
			e.Old = "?"
			if spec[i+3]%2 == 0 && 0 <= e.Start && e.Start <= e.End && e.End <= len(src) {
				e.Old = string(src[e.Start:e.End])
			}
			edits = append(edits, e)
		}
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "f.go"), string(src))
		apply := func(order []TextEdit) *FixOutcome {
			findings := make([]Finding, len(order))
			for i, e := range order {
				findings[i] = Finding{Rule: "fuzz", Fix: &SuggestedFix{Edits: []TextEdit{e}}}
			}
			out, err := ApplyFixes(dir, findings)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		out := apply(edits)
		reversed := make([]TextEdit, len(edits))
		for i, e := range edits {
			reversed[len(edits)-1-i] = e
		}
		if rev := apply(reversed); rev.Applied != out.Applied || rev.Skipped != out.Skipped ||
			string(rev.Changed["f.go"]) != string(out.Changed["f.go"]) {
			t.Fatalf("findings in reverse give applied=%d skipped=%d %q, in order applied=%d skipped=%d %q",
				rev.Applied, rev.Skipped, rev.Changed["f.go"], out.Applied, out.Skipped, out.Changed["f.go"])
		}

		got, changed := out.Changed["f.go"]
		if changed != (out.Applied > 0) {
			t.Fatalf("applied=%d but file changed=%v", out.Applied, changed)
		}
		if !changed {
			got = src
		}
		distinct := make(map[TextEdit]bool)
		for _, e := range edits {
			distinct[e] = true
		}
		if n := out.Applied + out.Skipped; n < len(distinct) || n > len(edits) {
			t.Fatalf("applied=%d skipped=%d for %d edits, %d distinct", out.Applied, out.Skipped, len(edits), len(distinct))
		}
		if !substitutes(src, got, edits, out.Applied) {
			t.Fatalf("result %q is not %q with %d of the edits %+v substituted", got, src, out.Applied, edits)
		}
	})
}

// substitutes reports whether got is src with some k distinct edits
// substituted, each pinned to src's text and none overlapping another;
// edits that touch at one offset go in ApplyFixes's order.
func substitutes(src, got []byte, edits []TextEdit, k int) bool {
	var cand []TextEdit
	seen := make(map[TextEdit]bool)
	for _, e := range edits {
		if !seen[e] && 0 <= e.Start && e.Start <= e.End && e.End <= len(src) && string(src[e.Start:e.End]) == e.Old {
			cand = append(cand, e)
		}
		seen[e] = true
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.New < b.New
	})
	for set := 0; set < 1<<len(cand); set++ {
		if bits.OnesCount(uint(set)) != k {
			continue
		}
		var b []byte
		at, ok := 0, true
		for i, e := range cand {
			if set&(1<<i) == 0 {
				continue
			}
			if e.Start < at {
				ok = false
				break
			}
			b = append(append(b, src[at:e.Start]...), e.New...)
			at = e.End
		}
		if ok && string(append(b, src[at:]...)) == string(got) {
			return true
		}
	}
	return false
}
