package experiment

import (
	"math"
	"sort"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
)

// Table4Row is one row of the paper's Table 4: a (platform, DNN family,
// workload) triple with both objective columns.
type Table4Row struct {
	Key    CellKey
	Energy *Cell // minimize-energy task
	Error  *Cell // minimize-error task
}

// Table4 is the main evaluation result.
type Table4 struct {
	Rows    []Table4Row
	Schemes []string
}

// Table4Keys lists the 15 cells the paper evaluates: CPU1 and CPU2 run both
// tasks, the GPU runs image classification only ("the RNN-based sentence
// prediction task is better suited for CPU", §5.1).
func Table4Keys() []CellKey {
	var keys []CellKey
	for _, plat := range []string{"CPU1", "CPU2"} {
		for _, task := range []dnn.Task{dnn.ImageClassification, dnn.SentencePrediction} {
			for _, sc := range contention.Scenarios() {
				keys = append(keys, CellKey{Platform: plat, Task: task, Scenario: sc})
			}
		}
	}
	for _, sc := range contention.Scenarios() {
		keys = append(keys, CellKey{Platform: "GPU", Task: dnn.ImageClassification, Scenario: sc})
	}
	return keys
}

// RunTable4 reproduces Table 4 at the given scale.
func RunTable4(sc Scale, opt CellOptions) (*Table4, error) {
	schemes := opt.Schemes
	if schemes == nil {
		schemes = Table4Schemes
	}
	t := &Table4{Schemes: schemes}
	for _, key := range Table4Keys() {
		energy, err := RunCell(key, core.MinimizeEnergy, sc, opt)
		if err != nil {
			return nil, err
		}
		errCell, err := RunCell(key, core.MaximizeAccuracy, sc, opt)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Table4Row{Key: key, Energy: energy, Error: errCell})
	}
	return t, nil
}

// HarmonicMeans returns the bottom row of Table 4: per-scheme harmonic
// means of the normalized values across all rows, for one objective.
func (t *Table4) HarmonicMeans(energyTask bool) map[string]float64 {
	out := make(map[string]float64, len(t.Schemes))
	for _, id := range t.Schemes {
		var vals []float64
		for _, row := range t.Rows {
			cell := row.Energy
			if !energyTask {
				cell = row.Error
			}
			v := cell.Norm[id].NormValue
			if !math.IsNaN(v) && v > 0 {
				vals = append(vals, v)
			}
		}
		out[id] = mathx.HarmonicMean(vals)
	}
	return out
}

// ViolationShare returns, per scheme, the fraction of all constraint
// settings (across every row) the scheme violated — the asterisk series of
// Figure 7.
func (t *Table4) ViolationShare(energyTask bool) map[string]float64 {
	out := make(map[string]float64, len(t.Schemes))
	for _, id := range t.Schemes {
		var violated, total int
		for _, row := range t.Rows {
			cell := row.Energy
			if !energyTask {
				cell = row.Error
			}
			c := cell.Norm[id]
			violated += c.ViolatedSettings
			total += c.Settings
		}
		if total > 0 {
			out[id] = float64(violated) / float64(total)
		}
	}
	return out
}

// Table lays Table 4 out in two sections, one per task, each closed by the
// harmonic-mean row.
func (t *Table4) Table() *Table {
	tb := &Table{
		ID:        "table4",
		Title:     []string{"Table 4 (normalized to OracleStatic, lower is better; ^k = k settings violated)"},
		Sectioned: true,
		Cols:      append([]Column{{"Task", 0}, {"Plat.", 0}, {"DNN", 0}, {"Work.", 0}}, cols(2, t.Schemes...)...),
	}
	for _, task := range []struct {
		title  string
		energy bool
	}{
		{"Table 4a: Energy in Minimize Energy Task", true},
		{"Table 4b: Error Rate in Minimize Error Task", false},
	} {
		for _, row := range t.Rows {
			cell := row.Energy
			if !task.energy {
				cell = row.Error
			}
			r := []any{task.title, row.Key.Platform, row.Key.Family(), row.Key.Workload()}
			for _, id := range t.Schemes {
				r = append(r, cell.Norm[id])
			}
			tb.Add(r...)
		}
		hm := t.HarmonicMeans(task.energy)
		r := []any{task.title, "", "Harmonic mean", ""}
		for _, id := range t.Schemes {
			r = append(r, hm[id])
		}
		tb.Add(r...)
	}
	return tb
}

// Fig7Summary condenses Table 4 into Figure 7: per scheme, the average
// normalized performance and the share of violated constraint settings, for
// both tasks.
type Fig7Summary struct {
	Schemes []string
	// NormPerf[task][scheme]; task 0 = minimize energy, 1 = minimize error.
	NormPerf   [2]map[string]float64
	Violations [2]map[string]float64
}

// Fig7 derives the summary from a completed Table 4.
func Fig7(t *Table4) *Fig7Summary {
	s := &Fig7Summary{Schemes: t.Schemes}
	s.NormPerf[0] = t.HarmonicMeans(true)
	s.NormPerf[1] = t.HarmonicMeans(false)
	s.Violations[0] = t.ViolationShare(true)
	s.Violations[1] = t.ViolationShare(false)
	return s
}

// Table lays Figure 7 out as one row per scheme, in name order.
func (s *Fig7Summary) Table() *Table {
	t := &Table{
		ID:    "fig7",
		Title: []string{"Figure 7: summary (normalized to OracleStatic; violations = % of settings >10% violated)"},
		Cols: []Column{{"Scheme", 0}, {"MinEnergy perf", 2}, {"MinEnergy violations(%)", 1},
			{"MinError perf", 2}, {"MinError violations(%)", 1}},
	}
	ids := append([]string(nil), s.Schemes...)
	sort.Strings(ids)
	for _, id := range ids {
		t.Add(id, s.NormPerf[0][id], 100*s.Violations[0][id], s.NormPerf[1][id], 100*s.Violations[1][id])
	}
	return t
}
