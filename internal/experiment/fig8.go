package experiment

import (
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
)

// Fig8Group is one subplot of Figure 8: a (platform, task) pair with, per
// contention scenario, the distribution over constraint settings of each
// scheme's average energy.
type Fig8Group struct {
	Platform string
	Task     dnn.Task
	// Boxes[scenario][scheme] summarizes per-setting average energies.
	Boxes map[contention.Scenario]map[string]mathx.BoxStats
}

// Fig8Result compares ALERT against Oracle and OracleStatic on the
// minimize-energy task across the whole requirement grid (§5.2, Fig. 8).
type Fig8Result struct {
	Groups []Fig8Group
}

// RunFig8 reproduces Figure 8's four subplots (CPU1/CPU2 x image/sentence).
func RunFig8(sc Scale) (*Fig8Result, error) {
	schemes := []string{SchemeALERT, SchemeOracle}
	res := &Fig8Result{}
	for _, plat := range []string{"CPU1", "CPU2"} {
		for _, task := range []dnn.Task{dnn.ImageClassification, dnn.SentencePrediction} {
			g := Fig8Group{
				Platform: plat,
				Task:     task,
				Boxes:    make(map[contention.Scenario]map[string]mathx.BoxStats),
			}
			for _, scenario := range contention.Scenarios() {
				key := CellKey{Platform: plat, Task: task, Scenario: scenario}
				cell, err := RunCell(key, core.MinimizeEnergy, sc, CellOptions{Schemes: schemes})
				if err != nil {
					return nil, err
				}
				byScheme := make(map[string]mathx.BoxStats)
				for _, id := range append(schemes, SchemeOracleSt) {
					var energies []float64
					for _, s := range cell.PerSetting[id] {
						energies = append(energies, s.AvgEnergy)
					}
					byScheme[id] = mathx.Box(energies)
				}
				g.Boxes[scenario] = byScheme
			}
			res.Groups = append(res.Groups, g)
		}
	}
	return res, nil
}

// Table lays Figure 8 out in one section per subplot and one row per
// scenario, with each scheme's mean, min and max.
func (r *Fig8Result) Table() *Table {
	order := []string{SchemeOracleSt, SchemeALERT, SchemeOracle}
	t := &Table{
		ID: "fig8",
		Title: []string{
			"Figure 8: ALERT vs Oracle and OracleStatic, minimize-energy task",
			"(per scheme: mean, min and max of average energy in J across constraint settings)",
		},
		Sectioned: true,
		Cols:      []Column{{"Subplot", 0}, {"Scenario", 0}},
	}
	for _, id := range order {
		t.Cols = append(t.Cols, cols(2, id+" mean", id+" min", id+" max")...)
	}
	for _, g := range r.Groups {
		task := "Image Classification"
		if g.Task == dnn.SentencePrediction {
			task = "Sentence Prediction"
		}
		for _, scenario := range contention.Scenarios() {
			row := []any{g.Platform + ", " + task, scenario.String()}
			for _, id := range order {
				box := g.Boxes[scenario][id]
				row = append(row, box.Mean, box.Min, box.Max)
			}
			t.Add(row...)
		}
	}
	return t
}
