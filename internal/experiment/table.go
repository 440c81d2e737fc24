package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/alert-project/alert/internal/metrics"
)

// Table is one artifact of the evaluation as data: every experiment's
// result becomes a Table, and WriteText and WriteCSV are the only two ways
// a result is printed.
type Table struct {
	// ID names the artifact; cmd/experiments prints it in the banner and
	// names the CSV file after it.
	ID    string
	Title []string
	// Sectioned makes Cols[0] a section key: the text form starts a headed
	// section whenever the key changes and leaves the key column out.
	Sectioned bool
	Cols      []Column
	// Rows hold one cell per column: a string, an int, a float64, a
	// metrics.CellResult (a Table 4 cell), or nil for an empty cell.
	Rows  [][]any
	Notes []string
}

// Column names a column and the digits its float cells keep in text.
type Column struct {
	Name string
	Prec int
}

// cols builds one column per name, all at the same precision.
func cols(prec int, names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n, Prec: prec}
	}
	return out
}

// Add appends one row, padding it with empty cells to the column count.
func (t *Table) Add(cells ...any) {
	for len(cells) < len(t.Cols) {
		cells = append(cells, nil)
	}
	t.Rows = append(t.Rows, cells)
}

// formatFloat is the one float rule: NaN prints as "--" (text) or an empty
// field (CSV), +Inf as "inf"; prec < 0 keeps every digit.
func formatFloat(x float64, prec int, nan string) string {
	switch {
	case math.IsNaN(x):
		return nan
	case math.IsInf(x, 1):
		return "inf"
	case prec < 0:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strconv.FormatFloat(x, 'f', prec, 64)
}

// text formats one cell for the text form.
func (c Column) text(v any) string {
	switch v := v.(type) {
	case nil:
		return ""
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	case float64:
		return formatFloat(v, c.Prec, "--")
	case metrics.CellResult:
		if v.ViolatedSettings > 0 {
			return formatFloat(v.NormValue, c.Prec, "--") + "^" + strconv.Itoa(v.ViolatedSettings)
		}
		return formatFloat(v.NormValue, c.Prec, "--")
	}
	panic(fmt.Sprintf("experiment: table cell of type %T", v))
}

// WriteText writes the aligned text form: title lines, a header, the rows
// (each column as wide as its header or widest cell, strings left and
// numbers right), then the notes.
func (t *Table) WriteText(w io.Writer) error {
	header := make([]string, len(t.Cols))
	width := make([]int, len(t.Cols))
	numeric := make([]bool, len(t.Cols))
	for i, c := range t.Cols {
		header[i], width[i] = c.Name, utf8.RuneCountInString(c.Name)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			width[i] = max(width[i], utf8.RuneCountInString(t.Cols[i].text(v)))
			_, str := v.(string)
			numeric[i] = numeric[i] || (v != nil && !str)
		}
	}
	first := 0
	if t.Sectioned {
		first = 1
	}
	var b strings.Builder
	line := func(cells []string, left func(i int) bool) {
		for i := first; i < len(cells); i++ {
			pad := strings.Repeat(" ", width[i]-utf8.RuneCountInString(cells[i]))
			if left(i) {
				cells[i] += pad
			} else {
				cells[i] = pad + cells[i]
			}
		}
		b.WriteString(strings.TrimRight(strings.Join(cells[first:], "  "), " ") + "\n")
	}
	headerLine := func() { line(append([]string(nil), header...), func(i int) bool { return !numeric[i] }) }
	for _, s := range t.Title {
		b.WriteString(s + "\n")
	}
	if !t.Sectioned {
		headerLine()
	}
	for r, row := range t.Rows {
		if t.Sectioned && (r == 0 || row[0] != t.Rows[r-1][0]) {
			fmt.Fprintf(&b, "-- %s --\n", row[0])
			headerLine()
		}
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = t.Cols[i].text(v)
		}
		line(cells, func(i int) bool { _, str := row[i].(string); return str })
	}
	for _, s := range t.Notes {
		b.WriteString(s + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the header and every row, floats at full precision. A
// column holding Table 4 cells gets a second field, "<name> violated", with
// the violated-setting count.
func (t *Table) WriteCSV(w io.Writer) error {
	split := make([]bool, len(t.Cols))
	for _, row := range t.Rows {
		for i, v := range row {
			_, ok := v.(metrics.CellResult)
			split[i] = split[i] || ok
		}
	}
	var header []string
	for i, c := range t.Cols {
		header = append(header, c.Name)
		if split[i] {
			header = append(header, c.Name+" violated")
		}
	}
	recs := [][]string{header}
	for _, row := range t.Rows {
		var rec []string
		for i, v := range row {
			switch v := v.(type) {
			case float64:
				rec = append(rec, formatFloat(v, -1, ""))
			case metrics.CellResult:
				rec = append(rec, formatFloat(v.NormValue, -1, ""), strconv.Itoa(v.ViolatedSettings))
			default:
				rec = append(rec, t.Cols[i].text(v))
			}
			if _, ok := v.(metrics.CellResult); split[i] && !ok {
				rec = append(rec, "")
			}
		}
		recs = append(recs, rec)
	}
	return csv.NewWriter(w).WriteAll(recs)
}
