package lint

// The autofix engine. Rules that know their remedy attach a SuggestedFix
// (byte-range edits pinned to the text they replace); ApplyFixes turns a
// run's fixable findings into new file contents deterministically:
// per-file, edits sorted by offset, overlapping or drifted edits skipped
// rather than guessed at. Pinning Old makes the whole pipeline idempotent —
// a second -fix run finds either no finding (the fix removed it) or an Old
// mismatch (the file moved on) and changes nothing.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stalewaiverRule audits the suppression mechanism itself: a //lint:ignore
// directive that no longer suppresses anything is dead weight that hides
// future findings on its line. Check is a no-op — staleness is judged
// inside Analyze after every other enabled rule has reported, because only
// then are the suppression index's usage bits final.
type stalewaiverRule struct{}

func (stalewaiverRule) Name() string  { return "stalewaiver" }
func (stalewaiverRule) Waste() string { return "det" }
func (stalewaiverRule) Doc() string {
	return "//lint:ignore directives must still suppress a finding; delete stale waivers"
}
func (stalewaiverRule) Check(*Package, *Reporter) {}

// deleteDirectiveFix builds the edit that removes a stale directive: the
// whole line when the directive stands alone on it, otherwise just the
// comment and the whitespace joining it to the code it trails. Returns nil
// when the package has no retained source (synthetic loads).
func deleteDirectiveFix(d *directive) *SuggestedFix {
	tf := d.pkg.Fset.File(d.pos)
	if tf == nil {
		return nil
	}
	src, ok := d.pkg.Src[tf.Name()]
	if !ok {
		return nil
	}
	start, end := tf.Offset(d.pos), tf.Offset(d.end)
	line := tf.Line(d.pos)
	lineStart := tf.Offset(tf.LineStart(line))
	delStart, delEnd := start, end
	if strings.TrimSpace(string(src[lineStart:start])) == "" {
		// Standalone directive: remove the full line, newline included.
		delStart = lineStart
		if line < tf.LineCount() {
			delEnd = tf.Offset(tf.LineStart(line + 1))
		} else {
			delEnd = len(src)
		}
	} else {
		// Trailing directive: also eat the spacing before the comment.
		for delStart > lineStart && (src[delStart-1] == ' ' || src[delStart-1] == '\t') {
			delStart--
		}
	}
	return &SuggestedFix{
		Msg: "delete the stale //lint:ignore directive",
		Edits: []TextEdit{{
			File:  d.file,
			Start: delStart,
			End:   delEnd,
			Old:   string(src[delStart:delEnd]),
		}},
	}
}

// replaceRange builds a single-edit fix replacing [pos, end) with newText,
// pinning the current source; nil when the package retains no source bytes
// (synthetic loads) or the range is out of bounds. The edit's File is the
// absolute filename; the reporter relativises it against the module root.
func replaceRange(p *Package, msg string, pos, end token.Pos, newText string) *SuggestedFix {
	tf := p.Fset.File(pos)
	if tf == nil {
		return nil
	}
	src, ok := p.Src[tf.Name()]
	if !ok {
		return nil
	}
	so, eo := tf.Offset(pos), tf.Offset(end)
	if so < 0 || so > eo || eo > len(src) {
		return nil
	}
	return &SuggestedFix{
		Msg: msg,
		Edits: []TextEdit{{
			File:  tf.Name(),
			Start: so,
			End:   eo,
			Old:   string(src[so:eo]),
			New:   newText,
		}},
	}
}

// FixOutcome summarises one ApplyFixes run.
type FixOutcome struct {
	// Changed maps module-relative paths to their post-fix contents; only
	// files with at least one applied edit appear.
	Changed map[string][]byte
	// Applied counts edits written into Changed.
	Applied int
	// Skipped counts edits dropped for overlap, for a range outside the
	// file, or because the file no longer holds the text the edit pinned
	// (Old mismatch).
	Skipped int
}

// ApplyFixes computes the result of applying every suggested fix in
// findings to the files under root. Nothing is written to disk — the caller
// decides (WriteFixes writes, the -fix -n dry run diffs). Identical edits
// from different findings collapse into one; edits overlapping an earlier
// (lower-offset) edit are skipped, as are edits whose pinned Old text no
// longer matches the file, or whose range lies outside it. The outcome is
// a pure function of the root's contents and the set of edits, whatever
// the order of the findings, so repeated runs are byte-stable.
func ApplyFixes(root string, findings []Finding) (*FixOutcome, error) {
	byFile := make(map[string][]TextEdit)
	for _, f := range findings {
		if f.Suppressed || f.Fix == nil {
			continue
		}
		for _, e := range f.Fix.Edits {
			byFile[e.File] = append(byFile[e.File], e)
		}
	}
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)

	out := &FixOutcome{Changed: make(map[string][]byte)}
	for _, file := range files {
		edits := byFile[file]
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].Start != edits[j].Start {
				return edits[i].Start < edits[j].Start
			}
			if edits[i].End != edits[j].End {
				return edits[i].End < edits[j].End
			}
			return edits[i].New < edits[j].New
		})
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(file)))
		if err != nil {
			return nil, fmt.Errorf("lint: fix %s: %w", file, err)
		}
		kept := edits[:0]
		prevEnd := -1
		var prev TextEdit
		for _, e := range edits {
			if len(kept) > 0 && e == prev {
				continue // same edit suggested by two findings
			}
			if e.Start < prevEnd || e.Start < 0 || e.Start > e.End || e.End > len(src) {
				out.Skipped++
				continue
			}
			if string(src[e.Start:e.End]) != e.Old {
				out.Skipped++ // file drifted since analysis; don't guess
				continue
			}
			kept = append(kept, e)
			prev = e
			prevEnd = e.End
		}
		if len(kept) == 0 {
			continue
		}
		// Apply back-to-front so earlier offsets stay valid.
		buf := append([]byte(nil), src...)
		for i := len(kept) - 1; i >= 0; i-- {
			e := kept[i]
			buf = append(buf[:e.Start], append([]byte(e.New), buf[e.End:]...)...)
		}
		out.Changed[file] = buf
		out.Applied += len(kept)
	}
	return out, nil
}

// WriteFixes applies the outcome to disk, preserving each file's mode.
func WriteFixes(root string, out *FixOutcome) error {
	files := make([]string, 0, len(out.Changed))
	for f := range out.Changed {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		path := filepath.Join(root, filepath.FromSlash(file))
		mode := os.FileMode(0o644)
		if st, err := os.Stat(path); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(path, out.Changed[file], mode); err != nil {
			return fmt.Errorf("lint: fix %s: %w", file, err)
		}
	}
	return nil
}

// DiffFixes renders the outcome as a minimal line diff against the files
// under root, byte-stable: files sorted, each changed region shown as the
// old lines prefixed "-" and the new lines prefixed "+". This is the
// -fix -n dry run's output.
func DiffFixes(root string, out *FixOutcome) (string, error) {
	files := make([]string, 0, len(out.Changed))
	for f := range out.Changed {
		files = append(files, f)
	}
	sort.Strings(files)
	var b strings.Builder
	for _, file := range files {
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(file)))
		if err != nil {
			return "", fmt.Errorf("lint: diff %s: %w", file, err)
		}
		oldLines := strings.SplitAfter(string(src), "\n")
		newLines := strings.SplitAfter(string(out.Changed[file]), "\n")
		// Trim the common prefix and suffix; what remains is the changed
		// region (one hunk — fixes cluster, and a dry run needs review
		// context, not patch-tool fidelity).
		p := 0
		for p < len(oldLines) && p < len(newLines) && oldLines[p] == newLines[p] {
			p++
		}
		so, sn := len(oldLines), len(newLines)
		for so > p && sn > p && oldLines[so-1] == newLines[sn-1] {
			so--
			sn--
		}
		fmt.Fprintf(&b, "--- %s:%d\n", file, p+1)
		for _, l := range oldLines[p:so] {
			b.WriteString("-" + strings.TrimRight(l, "\n") + "\n")
		}
		for _, l := range newLines[p:sn] {
			b.WriteString("+" + strings.TrimRight(l, "\n") + "\n")
		}
	}
	return b.String(), nil
}
