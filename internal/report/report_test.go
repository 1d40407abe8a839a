package report

import (
	"strings"
	"testing"
)

func TestTableASCII(t *testing.T) {
	tb := NewTable("T0", "demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("bb", "22")
	out := tb.String()
	if !strings.Contains(out, "T0: demo") {
		t.Fatalf("missing caption:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // caption, header, rule, two rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns must align: "value" column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "value")
	if idx < 0 {
		t.Fatalf("missing header: %q", lines[1])
	}
	if got := strings.Index(lines[3], "1"); got != idx {
		t.Fatalf("misaligned column: header at %d, cell at %d\n%s", idx, got, out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("T0", "ragged", "a", "b")
	tb.AddRow("1", "2", "3") // wider than headers
	tb.AddRow("x")           // narrower
	if tb.NumCols() != 3 {
		t.Fatalf("NumCols = %d, want 3", tb.NumCols())
	}
	out := tb.String()
	if !strings.Contains(out, "3") || !strings.Contains(out, "x") {
		t.Fatalf("ragged cells lost:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("T9", "md", "h1", "h2")
	tb.AddRow("a", "b")
	var b strings.Builder
	if err := (Markdown{}).Table(&b, tb); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"**T9: md**", "| h1 | h2 |", "| --- | --- |", "| a | b |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	f := NewFigure("F1", "speed", "n", "t")
	f.Xs = []float64{1, 2}
	f.AddSeries("fast", []float64{0.5, 0.25})
	f.AddSeries("slow", []float64{1})
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if lines[1] != "n,fast,slow" {
		t.Fatalf("header = %q", lines[1])
	}
	if lines[2] != "1,0.5,1" {
		t.Fatalf("row = %q", lines[2])
	}
	if lines[3] != "2,0.25," {
		t.Fatalf("short series row = %q", lines[3])
	}
}

func TestFigureTableView(t *testing.T) {
	f := NewFigure("F2", "cap", "x", "y")
	f.Xs = []float64{10}
	f.AddSeries("s", []float64{3.5})
	out := f.String()
	if !strings.Contains(out, "F2") || !strings.Contains(out, "3.5") {
		t.Fatalf("table view wrong:\n%s", out)
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0s"},
		{1.5, "1.5s"},
		{0.002, "2ms"},
		{3e-6, "3us"},
		{4e-9, "4ns"},
		{-0.002, "-2ms"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Errorf("FormatSeconds(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatJoules(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0J"},
		{2, "2J"},
		{2e-3, "2mJ"},
		{2e-6, "2uJ"},
		{2e-9, "2nJ"},
		{2e-12, "2pJ"},
		{2e3, "2kJ"},
		{2e6, "2MJ"},
	}
	for _, c := range cases {
		if got := FormatJoules(c.in); got != c.want {
			t.Errorf("FormatJoules(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	if got := FormatBytes(512); got != "512B" {
		t.Errorf("got %q", got)
	}
	if got := FormatBytes(2048); got != "2KiB" {
		t.Errorf("got %q", got)
	}
	if got := FormatBytes(3 * 1024 * 1024); got != "3MiB" {
		t.Errorf("got %q", got)
	}
}

func TestFormatFactor(t *testing.T) {
	if got := FormatFactor(2.5); got != "2.50x" {
		t.Errorf("got %q", got)
	}
}
