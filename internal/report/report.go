// Package report renders experiment results as aligned ASCII tables,
// markdown tables, and CSV figure series. Every table and figure in the
// tenways evaluation suite goes through this package so that the harness,
// the CLI tools, and EXPERIMENTS.md all print identical rows.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a rectangular result with a caption, column headers, and rows of
// already-formatted cells. Build rows with AddRow and format cells with the
// helpers in this package so numeric styles stay uniform across experiments.
type Table struct {
	ID      string     `json:"id"` // experiment id, e.g. "T1"
	Caption string     `json:"caption"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// NewTable creates an empty table with the given identity and column headers.
func NewTable(id, caption string, headers ...string) *Table {
	return &Table{ID: id, Caption: caption, Headers: headers}
}

// AddRow appends one row. Cells beyond the header count are kept; short rows
// are padded with empty cells at render time.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// NumCols returns the widest row length, at least the header length.
func (t *Table) NumCols() int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

// WriteASCII renders the table with aligned columns to w (the ASCII
// renderer).
func (t *Table) WriteASCII(w io.Writer) error { return ASCII{}.Table(w, t) }

// String renders the ASCII form.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.WriteASCII(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one named line of a figure: y sampled at the figure's xs.
type Series struct {
	Name string    `json:"name"`
	Ys   []float64 `json:"ys"`
}

// Figure is a set of series over a common x axis, the unit a paper figure
// would plot. It renders as CSV (one column per series) and as an ASCII
// table for terminals.
type Figure struct {
	ID      string    `json:"id"`
	Caption string    `json:"caption"`
	XLabel  string    `json:"xlabel"`
	YLabel  string    `json:"ylabel"`
	Xs      []float64 `json:"xs"`
	Series  []Series  `json:"series"`
}

// NewFigure creates an empty figure.
func NewFigure(id, caption, xlabel, ylabel string) *Figure {
	return &Figure{ID: id, Caption: caption, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends a named series; its length must match len(Xs) by render
// time (shorter series render blank cells).
func (f *Figure) AddSeries(name string, ys []float64) {
	f.Series = append(f.Series, Series{Name: name, Ys: ys})
}

// WriteCSV emits "x,<series...>" rows, preceded by a comment header
// carrying the figure identity and axis labels (the CSV renderer).
func (f *Figure) WriteCSV(w io.Writer) error { return CSV{}.Figure(w, f) }

// Table converts the figure to an ASCII table view for terminal output.
func (f *Figure) Table() *Table {
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(f.ID, fmt.Sprintf("%s [y=%s]", f.Caption, f.YLabel), headers...)
	for i, x := range f.Xs {
		cells := []string{FormatG(x)}
		for _, s := range f.Series {
			if i < len(s.Ys) {
				cells = append(cells, FormatG(s.Ys[i]))
			} else {
				cells = append(cells, "")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// String renders the ASCII table view.
func (f *Figure) String() string { return f.Table().String() }

// FormatG formats a float compactly: %g limited to 4 significant digits.
func FormatG(x float64) string {
	return strconv.FormatFloat(x, 'g', 4, 64)
}

// FormatSeconds renders a duration given in seconds with an SI prefix.
func FormatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0s"
	case s < 0:
		return "-" + FormatSeconds(-s)
	case s < 1e-6:
		return FormatG(s*1e9) + "ns"
	case s < 1e-3:
		return FormatG(s*1e6) + "us"
	case s < 1:
		return FormatG(s*1e3) + "ms"
	default:
		return FormatG(s) + "s"
	}
}

// FormatJoules renders an energy in joules with an SI prefix.
func FormatJoules(j float64) string {
	switch {
	case j == 0:
		return "0J"
	case j < 0:
		return "-" + FormatJoules(-j)
	case j < 1e-9:
		return FormatG(j*1e12) + "pJ"
	case j < 1e-6:
		return FormatG(j*1e9) + "nJ"
	case j < 1e-3:
		return FormatG(j*1e6) + "uJ"
	case j < 1:
		return FormatG(j*1e3) + "mJ"
	case j < 1e3:
		return FormatG(j) + "J"
	case j < 1e6:
		return FormatG(j/1e3) + "kJ"
	default:
		return FormatG(j/1e6) + "MJ"
	}
}

// FormatBytes renders a byte count with a binary prefix.
func FormatBytes(b float64) string {
	switch {
	case b < 0:
		return "-" + FormatBytes(-b)
	case b < 1024:
		return FormatG(b) + "B"
	case b < 1024*1024:
		return FormatG(b/1024) + "KiB"
	case b < 1024*1024*1024:
		return FormatG(b/(1024*1024)) + "MiB"
	default:
		return FormatG(b/(1024*1024*1024)) + "GiB"
	}
}

// FormatFactor renders a ratio as "N.NNx".
func FormatFactor(f float64) string {
	return strconv.FormatFloat(f, 'f', 2, 64) + "x"
}
