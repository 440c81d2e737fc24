package main

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_all.golden")

// timing matches a banner's elapsed seconds, the one part of the output
// that is not seed-deterministic.
var timing = regexp.MustCompile(`(?m)^(==== \S+) \([0-9.]+s\) ====$`)

func stripTimings(s string) string { return timing.ReplaceAllString(s, "$1 ====") }

// TestQuickAll runs every artifact once at quick scale with -csv and checks
// both outputs: the text, banners' timings stripped, against the committed
// golden file, and one parseable CSV per printed table. Regenerate the
// golden file with: go test ./cmd/experiments -run QuickAll -update
func TestQuickAll(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-exp", "all", "-quick", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	text, ok := strings.CutSuffix(out.String(), "CSV artifacts written to "+dir+"\n")
	if !ok {
		t.Fatalf("output does not end with the CSV line:\n%s", out.String())
	}

	t.Run("golden", func(t *testing.T) {
		const golden = "testdata/quick_all.golden"
		got := stripTimings(text)
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", golden)
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got == string(want) {
			return
		}
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, golden, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	})

	t.Run("csv", func(t *testing.T) {
		want := []string{"fig10-Default.csv", "fig10-Memory.csv", "fig11.csv", "fig2.csv", "fig3.csv", "fig4.csv",
			"fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv", "fig9.csv", "scenario.csv", "table4.csv", "table5.csv"}
		if got := csvFiles(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("-exp all wrote %v, want %v", got, want)
		}
		records := map[string][][]string{}
		for _, name := range want {
			fh, err := os.Open(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			recs, err := csv.NewReader(fh).ReadAll()
			fh.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(recs) < 2 {
				t.Errorf("%s: %d records, want a header and at least one row", name, len(recs))
			}
			records[strings.TrimSuffix(name, ".csv")] = recs
		}
		if !strings.Contains(fieldsOf(records["fig6"]), "|inf|") {
			t.Error("fig6.csv: no infeasible (inf) cell; Sys-level should fail tight deadlines")
		}
		if n := len(records["fig9"]) - 1; n != 2*160 {
			t.Errorf("fig9.csv: %d rows, want 2 schemes x 160 inputs", n)
		}
		if n := len(records["fig11"]) - 1; n != 3*20 {
			t.Errorf("fig11.csv: %d rows, want 3 scenarios x 20 bins", n)
		}
	})
}

// TestCSVOnlySelected: -csv writes the selected experiments' tables only.
func TestCSVOnlySelected(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-exp", "fig3", "-quick", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if got := csvFiles(t, dir); len(got) != 1 || got[0] != "fig3.csv" {
		t.Errorf("-exp fig3 wrote %v, want only fig3.csv", got)
	}
}

func csvFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// fieldsOf joins every field of every record between "|" separators.
func fieldsOf(recs [][]string) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString("|" + strings.Join(r, "|") + "|")
	}
	return b.String()
}

// TestRunQuickFig3 is the end-to-end smoke test: one cheap experiment at
// quick scale must render its table.
func TestRunQuickFig3(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig3", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "==== fig3") {
		t.Errorf("missing fig3 banner in:\n%s", out.String())
	}
}

// TestRunParallelDeterminism runs the same experiment serially and with
// -parallel and requires identical output — the flag must never change
// results, only wall-clock time.
func TestRunParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cell run too slow for -short")
	}
	var serial, parallel strings.Builder
	if err := run([]string{"-exp", "fig8", "-quick", "-parallel", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig8", "-quick", "-parallel", "6"}, &parallel); err != nil {
		t.Fatal(err)
	}
	if stripTimings(serial.String()) != stripTimings(parallel.String()) {
		t.Error("fig8 output differs between -parallel 1 and -parallel 6")
	}
}

// TestRunScenarioSweep exercises the -scenario dimension end-to-end: a
// named-scenario subset must render one row per scenario.
func TestRunScenarioSweep(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "scenario", "-scenario", "thermal,bursty", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "==== scenario") {
		t.Fatalf("missing scenario banner in:\n%s", got)
	}
	for _, name := range []string{"thermal", "bursty"} {
		if !strings.Contains(got, name) {
			t.Errorf("missing %s row in:\n%s", name, got)
		}
	}
	if err := run([]string{"-exp", "scenario", "-scenario", "nope"}, &out); err == nil {
		t.Error("unknown scenario name: want error, got nil")
	}
}

// TestRunFlagErrors checks bad invocations surface as errors, not exits.
func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag: want error, got nil")
	}
	if err := run([]string{"-exp", "nosuchfig"}, &out); err == nil {
		t.Error("unknown experiment id: want error, got nil")
	}
}
