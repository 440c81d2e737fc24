package experiment

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"github.com/alert-project/alert/internal/metrics"
)

// TestTableWriters pins the one layout and the one set of cell rules every
// artifact shares: widths from header or widest cell, strings left and
// numbers right, NaN as "--" (empty in CSV), +Inf as "inf", the ^k
// violated-setting superscript (its own CSV field), section headers, and
// full precision in CSV.
func TestTableWriters(t *testing.T) {
	tb := &Table{
		ID:        "demo",
		Title:     []string{"Demo table"},
		Sectioned: true,
		Cols:      []Column{{"Part", 0}, {"Name", 0}, {"n", 0}, {"x", 2}, {"norm", 2}},
		Notes:     []string{"(paper: none)"},
	}
	tb.Add("a", "long name", 7, 1.0/3, metrics.CellResult{NormValue: 0.987, ViolatedSettings: 2})
	tb.Add("a", "inf", 12, math.Inf(1), metrics.CellResult{NormValue: math.NaN()})
	tb.Add("b", "short")

	want := strings.Join([]string{
		"Demo table",
		"-- a --",
		"Name        n     x    norm",
		"long name   7  0.33  0.99^2",
		"inf        12   inf      --",
		"-- b --",
		"Name        n     x    norm",
		"short",
		"(paper: none)",
		"",
	}, "\n")
	if got := text(t, tb); got != want {
		t.Errorf("text form:\n%s\nwant:\n%s", got, want)
	}

	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%s", err, b.String())
	}
	wantCSV := [][]string{
		{"Part", "Name", "n", "x", "norm", "norm violated"},
		{"a", "long name", "7", "0.3333333333333333", "0.987", "2"},
		{"a", "inf", "12", "inf", "", "0"},
		{"b", "short", "", "", "", ""},
	}
	if len(recs) != len(wantCSV) {
		t.Fatalf("CSV has %d records, want %d:\n%s", len(recs), len(wantCSV), b.String())
	}
	for i := range wantCSV {
		if strings.Join(recs[i], "|") != strings.Join(wantCSV[i], "|") {
			t.Errorf("CSV record %d = %q, want %q", i, recs[i], wantCSV[i])
		}
	}
}
