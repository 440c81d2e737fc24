package experiment

import (
	"math"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/metrics"
)

// Table5Schemes is the candidate-set comparison roster: the full mixed set,
// the anytime-only set, and the traditional-only set.
var Table5Schemes = []string{SchemeALERT, SchemeALERTAny, SchemeALERTTrad}

// Table5Row is one (platform, workload) row of Table 5, Sparse ResNet task.
type Table5Row struct {
	Key    CellKey
	Energy map[string]metrics.CellResult
	Error  map[string]metrics.CellResult
}

// Table5 compares ALERT under different DNN candidate sets (§5.3).
type Table5 struct {
	Rows []Table5Row
}

// RunTable5 reproduces Table 5: image classification on CPU1/CPU2/GPU under
// the three environments.
func RunTable5(sc Scale) (*Table5, error) {
	t := &Table5{}
	for _, plat := range []string{"CPU1", "CPU2", "GPU"} {
		for _, scenario := range contention.Scenarios() {
			key := CellKey{Platform: plat, Task: dnn.ImageClassification, Scenario: scenario}
			opt := CellOptions{Schemes: Table5Schemes}
			energy, err := RunCell(key, core.MinimizeEnergy, sc, opt)
			if err != nil {
				return nil, err
			}
			errCell, err := RunCell(key, core.MaximizeAccuracy, sc, opt)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, Table5Row{
				Key:    key,
				Energy: energy.Norm,
				Error:  errCell.Norm,
			})
		}
	}
	return t, nil
}

// HarmonicMeans returns the bottom row for one objective column.
func (t *Table5) HarmonicMeans(energyTask bool) map[string]float64 {
	out := make(map[string]float64)
	for _, id := range Table5Schemes {
		var vals []float64
		for _, row := range t.Rows {
			cells := row.Energy
			if !energyTask {
				cells = row.Error
			}
			v := cells[id].NormValue
			if !math.IsNaN(v) && v > 0 {
				vals = append(vals, v)
			}
		}
		out[id] = mathx.HarmonicMean(vals)
	}
	return out
}

// Table lays Table 5 out in two sections, one per task, each closed by the
// harmonic-mean row.
func (t *Table5) Table() *Table {
	tb := &Table{
		ID:        "table5",
		Title:     []string{"Table 5: ALERT candidate sets, normalized to OracleStatic @ Sparse ResNet (lower is better)"},
		Sectioned: true,
		Cols:      append([]Column{{"Task", 0}, {"Plat.", 0}, {"Work.", 0}}, cols(2, Table5Schemes...)...),
	}
	for _, task := range []struct {
		title  string
		energy bool
	}{{"Minimize Energy Task", true}, {"Minimize Error Task", false}} {
		for _, row := range t.Rows {
			cells := row.Energy
			if !task.energy {
				cells = row.Error
			}
			r := []any{task.title, row.Key.Platform, row.Key.Workload()}
			for _, id := range Table5Schemes {
				r = append(r, cells[id])
			}
			tb.Add(r...)
		}
		hm := t.HarmonicMeans(task.energy)
		r := []any{task.title, "Harmonic mean", ""}
		for _, id := range Table5Schemes {
			r = append(r, hm[id])
		}
		tb.Add(r...)
	}
	return tb
}
