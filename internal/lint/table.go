package lint

import (
	"fmt"
	"strconv"

	"tenways/internal/report"
)

// CatalogTable renders the rule catalog with per-rule finding counts from
// res (nil res renders counts as blank). This is the shape the T11
// experiment and wastevet's summary share.
func CatalogTable(id, caption string, res *Result) *report.Table {
	t := report.NewTable(id, caption,
		"rule", "guards", "enforces", "findings", "suppressed")
	var total, sup map[string]int
	if res != nil {
		total, sup = res.Counts()
	}
	for _, r := range Rules() {
		findings, suppressed := "", ""
		if res != nil {
			findings = strconv.Itoa(total[r.Name()] - sup[r.Name()])
			suppressed = strconv.Itoa(sup[r.Name()])
		}
		t.AddRow(r.Name(), WasteLabel(r.Waste()), r.Doc(), findings, suppressed)
	}
	return t
}

// WasteLabel expands a rule's waste tag for table output: "det" becomes
// "determinism", waste-mode IDs pass through.
func WasteLabel(w string) string {
	if w == "det" {
		return "determinism"
	}
	return w
}

// Summary is a one-line human summary of a run.
func Summary(res *Result) string {
	un := len(res.Unsuppressed())
	return fmt.Sprintf("%d findings (%d suppressed) in %d files across %d packages",
		un, len(res.Findings)-un, res.Files, res.Packages)
}
