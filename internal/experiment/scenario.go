package experiment

import (
	"fmt"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/scenario"
)

// ScenarioSchemes is the roster the scenario sweep runs: ALERT, its
// mean-only ablation, the single-layer and uncoordinated baselines, and the
// clairvoyant upper bound.
var ScenarioSchemes = []string{
	SchemeALERT, SchemeALERTStar, SchemeSysOnly, SchemeNoCoord, SchemeOracle,
}

// ScenarioRow is one environment scenario's results over the constraint
// grid: the Table 4-style normalized cell per scheme, plus the mean
// per-input deadline-miss and violation rates that steady-state tables hide.
type ScenarioRow struct {
	Scenario string
	Norm     map[string]metrics.CellResult
	MissRate map[string]float64
	SLO      map[string]float64
}

// ScenarioSweep evaluates the roster across environment scenarios — the
// dynamic-environment dimension the paper's §6 claims and the steady-state
// grids of Table 4 cannot show. One row per built-in scenario: the same
// constraint grid, but every setting runs against a compiled scenario trace
// (phase-switching contention, throttling ramps, spec churn) instead of the
// stationary co-runner model.
type ScenarioSweep struct {
	Platform  string
	Objective core.Objective
	Rows      []ScenarioRow
}

// RunScenarioSweep runs the scenario dimension for the named scenarios
// (nil or empty means all built-ins) on CPU1, image classification,
// minimize-energy — the paper's headline cell, now under dynamic
// environments.
func RunScenarioSweep(names []string, sc Scale) (*ScenarioSweep, error) {
	if len(names) == 0 {
		names = scenario.Names()
	}
	sweep := &ScenarioSweep{Platform: "CPU1", Objective: core.MinimizeEnergy}
	for _, name := range names {
		spec, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		// The grid's achievability margin follows the heaviest co-runner
		// the scenario ever schedules, like the paper's setup keeps every
		// setting satisfiable by at least the oracle.
		key := CellKey{
			Platform: sweep.Platform,
			Task:     dnn.ImageClassification,
			Scenario: spec.HeaviestEnvironment(),
		}
		cell, err := RunCell(key, sweep.Objective, sc, CellOptions{
			Schemes:  ScenarioSchemes,
			Scenario: name,
		})
		if err != nil {
			return nil, err
		}
		row := ScenarioRow{
			Scenario: name,
			Norm:     cell.Norm,
			MissRate: make(map[string]float64, len(ScenarioSchemes)),
			SLO:      make(map[string]float64, len(ScenarioSchemes)),
		}
		for _, id := range ScenarioSchemes {
			var miss, viol []float64
			for _, s := range cell.PerSetting[id] {
				miss = append(miss, s.MissRate)
				viol = append(viol, s.ViolationRate)
			}
			row.MissRate[id] = mathx.Mean(miss)
			row.SLO[id] = 1 - mathx.Mean(viol)
		}
		sweep.Rows = append(sweep.Rows, row)
	}
	return sweep, nil
}

// Table lays the sweep out as one row per scenario: per scheme the
// normalized energy (violated-setting superscript) and the mean
// deadline-miss rate.
func (s *ScenarioSweep) Table() *Table {
	t := &Table{
		ID:    "scenario",
		Title: []string{fmt.Sprintf("Scenario sweep: %s, image classification, minimize-energy (norm. energy vs OracleStatic; ^n = violated settings; miss%% = mean deadline-miss rate)", s.Platform)},
		Cols:  []Column{{"Scenario", 0}},
	}
	for _, id := range ScenarioSchemes {
		t.Cols = append(t.Cols, Column{id, 2}, Column{id + " miss%", 1})
	}
	for _, row := range s.Rows {
		r := []any{row.Scenario}
		for _, id := range ScenarioSchemes {
			r = append(r, row.Norm[id], 100*row.MissRate[id])
		}
		t.Add(r...)
	}
	return t
}
