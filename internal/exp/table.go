// Package exp is the experiment harness: it defines the workloads, runs the
// estimators across trials, and renders the result tables that reproduce the
// paper's claims (see DESIGN.md §5 for the experiment index).
package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a titled grid of cells plus optional
// notes. Tables render to GitHub-flavoured markdown (for EXPERIMENTS.md).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given identity and column headers.
func NewTable(id, title string, columns ...string) *Table {
	return &Table{ID: id, Title: title, Columns: columns}
}

// AddRow appends a row; the number of cells should match the column count
// (short rows are padded, long rows truncated, so a mistake stays visible but
// never panics mid-experiment).
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-form footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range t.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}

// FormatCount renders integers compactly (1234567 -> "1.23M").
func FormatCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.2fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// FormatFloat renders a float with three significant decimals.
func FormatFloat(v float64) string { return fmt.Sprintf("%.3f", v) }

// FormatPercent renders a fraction as a percentage with one decimal.
func FormatPercent(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
