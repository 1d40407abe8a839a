package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func rendererFixture() (*Table, *Figure) {
	t := NewTable("T1", "a caption", "name", "value")
	t.AddRow("alpha", "1")
	t.AddRow("beta, with comma", "2")
	f := NewFigure("F1", "a figure", "x", "y")
	f.Xs = []float64{1, 2}
	f.AddSeries("s", []float64{10, 20})
	return t, f
}

func TestRendererByName(t *testing.T) {
	for _, name := range Formats() {
		if _, err := RendererByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for alias, want := range map[string]Renderer{
		"ASCII": ASCII{}, "text": ASCII{}, "": ASCII{}, "md": Markdown{}, "Markdown": Markdown{},
	} {
		r, err := RendererByName(alias)
		if err != nil {
			t.Fatalf("%q: %v", alias, err)
		}
		if r != want {
			t.Fatalf("%q resolved to %T", alias, r)
		}
	}
	if _, err := RendererByName("yaml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

// TestRenderersMatchLegacyWriters pins the renderer refactor: the old
// Write* methods and the renderers they now delegate to must emit
// identical bytes.
func TestRenderersMatchLegacyWriters(t *testing.T) {
	tbl, fig := rendererFixture()
	var a, b strings.Builder
	if err := tbl.WriteASCII(&a); err != nil {
		t.Fatal(err)
	}
	if err := (ASCII{}).Table(&b, tbl); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("ASCII mismatch:\n%q\n%q", a.String(), b.String())
	}
	a.Reset()
	b.Reset()
	if err := fig.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := (CSV{}).Figure(&b, fig); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("figure CSV mismatch")
	}
}

func TestCSVTableQuotesCells(t *testing.T) {
	tbl, _ := rendererFixture()
	var sb strings.Builder
	if err := (CSV{}).Table(&sb, tbl); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.HasPrefix(got, "# T1: a caption\n") {
		t.Fatalf("missing comment header:\n%s", got)
	}
	if !strings.Contains(got, `"beta, with comma"`) {
		t.Fatalf("comma cell not quoted:\n%s", got)
	}
	if !strings.Contains(got, "name,value\n") {
		t.Fatalf("missing header row:\n%s", got)
	}
}

func TestJSONRendererRoundTrips(t *testing.T) {
	tbl, fig := rendererFixture()
	var sb strings.Builder
	if err := (JSON{}).Table(&sb, tbl); err != nil {
		t.Fatal(err)
	}
	var backT Table
	if err := json.Unmarshal([]byte(sb.String()), &backT); err != nil {
		t.Fatal(err)
	}
	if backT.ID != tbl.ID || len(backT.Rows) != len(tbl.Rows) || backT.Rows[1][0] != "beta, with comma" {
		t.Fatalf("table round trip lost data: %+v", backT)
	}
	sb.Reset()
	if err := (JSON{}).Figure(&sb, fig); err != nil {
		t.Fatal(err)
	}
	var backF Figure
	if err := json.Unmarshal([]byte(sb.String()), &backF); err != nil {
		t.Fatal(err)
	}
	if backF.ID != fig.ID || len(backF.Series) != 1 || backF.Series[0].Ys[1] != 20 {
		t.Fatalf("figure round trip lost data: %+v", backF)
	}
	if !strings.HasSuffix(sb.String(), "\n") {
		t.Fatal("JSON output must end with a newline")
	}
}

func TestMarkdownRendererFigure(t *testing.T) {
	_, fig := rendererFixture()
	var sb strings.Builder
	if err := (Markdown{}).Figure(&sb, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "| x | s |") {
		t.Fatalf("figure table view missing:\n%s", sb.String())
	}
}
