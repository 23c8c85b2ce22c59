package experiments

import (
	"strings"
	"testing"
)

func TestTableMarkdown(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "demo", Note: "a note",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "with|pipe"}},
	}
	md := tab.Markdown()
	for _, want := range []string{"## EX — demo", "a note", "| a | b |", "| --- | --- |", "with\\|pipe"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown %q missing %q", md, want)
		}
	}
}

func TestSeriesMarkdown(t *testing.T) {
	s := Series{
		ID: "EY", Title: "curve", XLabel: "t",
		Names: []string{"c1", "c2"},
		X:     []float64{0, 5},
		Y:     [][]float64{{1, 2}, {3, 4}},
	}
	md := s.Markdown()
	for _, want := range []string{"## EY — curve", "| t | c1 | c2 |", "| 0 | 1.0 | 3.0 |", "| 5 | 2.0 | 4.0 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown %q missing %q", md, want)
		}
	}
}

func TestRunAllMarkdownQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	var b strings.Builder
	if err := RunAll(&b, Opts{Quick: true, Seeds: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{"## E1", "## E5", "## E13"} {
		if !strings.Contains(out, id) {
			t.Fatalf("markdown suite missing %s", id)
		}
	}
}
