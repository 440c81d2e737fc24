package experiment

import (
	"strings"
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
)

// text is a table's text form, as cmd/experiments prints it.
func text(t *testing.T, tb *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tb.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRenderersProduceCompleteTables exercises every result's Table as the
// cmd/experiments binary prints it, checking structural completeness
// rather than exact strings.
func TestRenderersProduceCompleteTables(t *testing.T) {
	sc := QuickScale()
	sc.Inputs = 60

	t.Run("fig3", func(t *testing.T) {
		res, err := RunFig3(sc)
		if err != nil {
			t.Fatal(err)
		}
		out := text(t, res.Table())
		if strings.Count(out, "\n") < len(res.Rows) {
			t.Error("render shorter than the row count")
		}
		if !strings.Contains(out, "min energy @") {
			t.Error("missing summary line")
		}
	})

	t.Run("fig45", func(t *testing.T) {
		res, err := RunFigVariance(true, sc)
		if err != nil {
			t.Fatal(err)
		}
		out := text(t, res.Table())
		if !strings.Contains(out, "Figure 5") {
			t.Error("contended render mislabeled")
		}
		if !strings.Contains(out, "OOM") {
			t.Error("embedded OOMs missing from render")
		}
	})

	t.Run("fig6", func(t *testing.T) {
		res, err := RunFig6(sc)
		if err != nil {
			t.Fatal(err)
		}
		out := text(t, res.Table())
		if !strings.Contains(out, "inf") {
			t.Error("no infeasible settings rendered; Sys-level should fail tight deadlines")
		}
	})

	t.Run("fig9", func(t *testing.T) {
		res, err := RunFig9(sc)
		if err != nil {
			t.Fatal(err)
		}
		out := text(t, res.Table())
		if !strings.Contains(out, "ALERT-Trad") || !strings.Contains(out, "mean quality") {
			t.Error("fig9 render incomplete")
		}
	})

	t.Run("fig10", func(t *testing.T) {
		res, err := RunFig10(contention.Default, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text(t, res.Table()), "ALERT*") {
			t.Error("ablation column missing")
		}
	})

	t.Run("fig11", func(t *testing.T) {
		res, err := RunFig11(sc)
		if err != nil {
			t.Fatal(err)
		}
		out := text(t, res.Table())
		for _, name := range []string{"Default", "Compute", "Memory"} {
			if !strings.Contains(out, name) {
				t.Errorf("missing %s histogram", name)
			}
		}
	})

	t.Run("cell-and-fig7", func(t *testing.T) {
		key := CellKey{Platform: "GPU", Task: dnn.ImageClassification, Scenario: contention.Default}
		schemes := []string{SchemeALERT, SchemeOracle}
		energy, err := RunCell(key, core.MinimizeEnergy, sc, CellOptions{Schemes: schemes})
		if err != nil {
			t.Fatal(err)
		}
		errc, err := RunCell(key, core.MaximizeAccuracy, sc, CellOptions{Schemes: schemes})
		if err != nil {
			t.Fatal(err)
		}
		t4 := &Table4{
			Rows:    []Table4Row{{Key: key, Energy: energy, Error: errc}},
			Schemes: schemes,
		}
		out := text(t, t4.Table())
		if !strings.Contains(out, "Harmonic mean") || !strings.Contains(out, "GPU") {
			t.Error("table4 render incomplete")
		}
		f7 := Fig7(t4)
		if !strings.Contains(text(t, f7.Table()), "violations") {
			t.Error("fig7 render incomplete")
		}
		for _, id := range schemes {
			if f7.NormPerf[0][id] <= 0 {
				t.Errorf("%s: missing summary value", id)
			}
		}
	})

	t.Run("fig8", func(t *testing.T) {
		res := &Fig8Result{Groups: []Fig8Group{{
			Platform: "CPU1",
			Task:     dnn.ImageClassification,
			Boxes:    map[contention.Scenario]map[string]mathx.BoxStats{},
		}}}
		if !strings.Contains(text(t, res.Table()), "CPU1") {
			t.Error("fig8 render missing group header")
		}
	})

	t.Run("cellkey-labels", func(t *testing.T) {
		k := CellKey{Platform: "CPU1", Task: dnn.SentencePrediction, Scenario: contention.Default}
		if k.Workload() != "Idle" || k.Family() != "RNN" {
			t.Errorf("labels: %s/%s", k.Workload(), k.Family())
		}
		k2 := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Memory}
		if k2.Workload() != "Memory" || k2.Family() != "SparseResnet" {
			t.Errorf("labels: %s/%s", k2.Workload(), k2.Family())
		}
	})
}
