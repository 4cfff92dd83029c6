// Package report renders the experiment tables shared by the benchmark
// harness (cmd/vdo-bench) and the CLIs: fixed-width text for terminals and
// JSON for downstream processing.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Millis renders a duration as fractional milliseconds, the unit the
// experiment tables and engine telemetry report wall/busy times in.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// Percent renders a fraction in [0,1] as a whole percentage. NaN and
// ±Inf — the zero-denominator accidents — render "-" so one bad ratio
// can never corrupt a telemetry table or its JSON encoding.
func Percent(f float64) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*f)
}

// Float renders a ratio-style value with two decimals, with the same
// NaN/Inf tolerance as Percent.
func Float(f float64) string {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return "-"
	}
	return fmt.Sprintf("%.2f", f)
}

// Table is a titled grid of cells.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Note is free-text commentary printed under the table (expected
	// shape, caveats).
	Note string `json:"note,omitempty"`
}

// New returns an empty table.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...interface{}) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = Float(v)
		case float32:
			row[i] = Float(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
	return t
}

// String renders the fixed-width text form.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, cell)
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// WriteText writes the text form to w.
func (t *Table) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, t.String()+"\n")
	return err
}

// WriteJSON writes the JSON form to w.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// WriteCSV writes the table as CSV (header row then data rows), the form
// plotting scripts consume.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Markdown renders the table as GitHub-flavoured markdown, the form
// embedded in EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Note)
	}
	return b.String()
}
