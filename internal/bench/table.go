package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"snacc/internal/sim"
)

// Table is one experiment's result grid: a number per labelled row and
// column, each column printed by its own format. String, CSV and JSON all
// render through Cell, so the three encodings print the same cells.
type Table struct {
	Title   string
	Columns []Column
	Rows    []Row
	Notes   []string
}

// Column names a table column (its unit, where it has one, is in the
// name) and formats its values. Format is nil for a column of text cells.
type Column struct {
	Name   string
	Format func(float64) string
}

// Row is one labelled row of values, one per column. Text holds the
// printed text of the few cells that are not one number (Table 1's URAM
// and DRAM, Figure 6's CPU), keyed by column name; such a cell has no
// entry in Values, so those columns come last.
type Row struct {
	Label  string
	Values []float64
	Text   map[string]string
}

// Cell formats the value at row r, column c.
func (t Table) Cell(r, c int) string {
	row := t.Rows[r]
	if s, ok := row.Text[t.Columns[c].Name]; ok {
		return s
	}
	return t.Columns[c].Format(row.Values[c])
}

// Value returns the number in the row labelled label and the column named
// column; ok is false when there is no such cell or it holds text.
func (t Table) Value(label, column string) (v float64, ok bool) {
	for _, row := range t.Rows {
		if row.Label != label {
			continue
		}
		for c, col := range t.Columns {
			if col.Name != column {
				continue
			}
			if _, text := row.Text[column]; text || c >= len(row.Values) {
				return 0, false
			}
			return row.Values[c], true
		}
	}
	return 0, false
}

// cells returns every row's formatted cells.
func (t Table) cells() [][]string {
	out := make([][]string, len(t.Rows))
	for r := range t.Rows {
		out[r] = make([]string, len(t.Columns))
		for c := range t.Columns {
			out[r][c] = t.Cell(r, c)
		}
	}
	return out
}

// names returns the column names.
func (t Table) names() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// String renders an aligned text table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	cells := t.cells()
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("variant")
	for _, r := range t.Rows {
		widths[0] = max(widths[0], len(r.Label))
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c.Name)
		for _, row := range cells {
			widths[i+1] = max(widths[i+1], len(row[i]))
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s  ", widths[i+1], c.Name)
	}
	b.WriteByte('\n')
	for r, row := range cells {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, t.Rows[r].Label)
		for i, c := range row {
			fmt.Fprintf(&b, "%*s  ", widths[i+1], c)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row, for
// plotting outside the CLI.
func (t Table) CSV() string {
	var b strings.Builder
	line := func(label string, cells []string) {
		b.WriteString(strings.ReplaceAll(label, ",", ";"))
		for _, c := range cells {
			b.WriteByte(',')
			b.WriteString(strings.ReplaceAll(c, ",", ";"))
		}
		b.WriteByte('\n')
	}
	line("label", t.names())
	for r, row := range t.cells() {
		line(t.Rows[r].Label, row)
	}
	return b.String()
}

// JSON renders the table as a JSON object with title, columns, rows (label
// plus formatted cells) and notes, for machine consumption of regenerated
// results.
func (t Table) JSON() string {
	type jsonRow struct {
		Label string   `json:"label"`
		Cells []string `json:"cells"`
	}
	doc := struct {
		Title   string    `json:"title"`
		Columns []string  `json:"columns"`
		Rows    []jsonRow `json:"rows"`
		Notes   []string  `json:"notes,omitempty"`
	}{Title: t.Title, Columns: t.names(), Notes: t.Notes}
	for r, row := range t.cells() {
		doc.Rows = append(doc.Rows, jsonRow{Label: t.Rows[r].Label, Cells: row})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// Strings and slices of strings cannot fail to marshal.
		panic(err)
	}
	return string(out)
}

// cols gives each name a column printed by format.
func cols(format func(float64) string, names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{n, format}
	}
	return out
}

// fixed prints a value with prec decimals.
func fixed(prec int) func(float64) string {
	return func(v float64) string { return fmt.Sprintf("%.*f", prec, v) }
}

// Column formats shared by the experiments.
var (
	gb    = fixed(2) // GB/s and other two-decimal values
	count = fixed(0) // event counts and other whole numbers
	tenth = fixed(1) // µs, kIOPS and other one-decimal values
)

// ratio prints a two-decimal multiple: "1.76x".
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }

// duration prints a nanosecond count as a sim.Time.
func duration(v float64) string { return sim.Time(v).String() }

// orDash prints "-" for a value that is not positive (a missing
// measurement) and format otherwise.
func orDash(format func(float64) string) func(float64) string {
	return func(v float64) string {
		if v > 0 {
			return format(v)
		}
		return "-"
	}
}
