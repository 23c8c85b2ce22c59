package experiments

import (
	"fmt"
	"strings"
)

// Markdown renders the table as a GitHub-flavored markdown section, ready
// for EXPERIMENTS.md.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	writeMarkdownRow(&b, t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	writeMarkdownRow(&b, sep)
	for _, row := range t.Rows {
		writeMarkdownRow(&b, row)
	}
	return b.String()
}

// Markdown renders the series as a markdown section with one column per
// curve.
func (s Series) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", s.ID, s.Title)
	if s.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", s.Note)
	}
	writeMarkdownRow(&b, append([]string{s.XLabel}, s.Names...))
	sep := make([]string, 1+len(s.Names))
	for i := range sep {
		sep[i] = "---"
	}
	writeMarkdownRow(&b, sep)
	for i, x := range s.X {
		row := []string{fmt.Sprintf("%g", x)}
		for _, curve := range s.Y {
			row = append(row, fmt.Sprintf("%.1f", curve[i]))
		}
		writeMarkdownRow(&b, row)
	}
	return b.String()
}

func writeMarkdownRow(b *strings.Builder, cells []string) {
	b.WriteString("|")
	for _, c := range cells {
		b.WriteString(" ")
		b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
		b.WriteString(" |")
	}
	b.WriteString("\n")
}
