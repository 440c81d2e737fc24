package experiment

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/scenario"
)

// scenarioScale is a deliberately tiny grid so the sweep stays test-fast.
func scenarioScale() Scale {
	return Scale{
		Inputs:          100,
		DeadlineFactors: []float64{0.6, 1.4},
		OtherLevels:     2,
		Seed:            42,
	}
}

func TestRunScenarioSweep(t *testing.T) {
	sweep, err := RunScenarioSweep([]string{"phased", "churn"}, scenarioScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 2 {
		t.Fatalf("got %d rows", len(sweep.Rows))
	}
	for _, row := range sweep.Rows {
		alert := row.Norm[SchemeALERT]
		if alert.Settings != 4 {
			t.Errorf("%s: ALERT aggregated %d settings, want 4", row.Scenario, alert.Settings)
		}
		if !math.IsNaN(alert.NormValue) && alert.NormValue <= 0 {
			t.Errorf("%s: ALERT norm %g must be positive", row.Scenario, alert.NormValue)
		}
		for _, id := range ScenarioSchemes {
			if miss := row.MissRate[id]; miss < 0 || miss > 1 {
				t.Errorf("%s/%s: miss rate %g outside [0,1]", row.Scenario, id, miss)
			}
			if slo := row.SLO[id]; slo < 0 || slo > 1 {
				t.Errorf("%s/%s: SLO %g outside [0,1]", row.Scenario, id, slo)
			}
		}
	}
	out := text(t, sweep.Table())
	for _, want := range []string{"phased", "churn", SchemeALERT, "miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}

func TestRunScenarioSweepUnknownName(t *testing.T) {
	if _, err := RunScenarioSweep([]string{"no-such"}, scenarioScale()); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

// TestScenarioCellDeterminism is the grid-level replay guarantee: the same
// seed and scenario produce the identical cell, serial or parallel — the
// property that lets CI compare scenario numbers across runs.
func TestScenarioCellDeterminism(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: scenario.Spec{}.HeaviestEnvironment()}
	opts := CellOptions{Schemes: []string{SchemeALERT, SchemeNoCoord}, Scenario: "thermal"}
	serial, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenarioScale()
	sc.Parallelism = 4
	parallel, err := RunCell(key, core.MinimizeEnergy, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Norm, parallel.Norm) {
		t.Error("parallel scenario cell diverged from serial")
	}
	if !reflect.DeepEqual(serial.PerSetting, parallel.PerSetting) {
		t.Error("per-setting scenario results diverged")
	}

	again, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), CellOptions{
		Schemes: []string{SchemeALERT, SchemeNoCoord}, Scenario: "thermal",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.PerSetting, again.PerSetting) {
		t.Error("same-seed scenario cells diverged across runs")
	}
}

// TestScenarioChangesOutcomes guards the plumbing end-to-end: a throttling
// scenario must actually perturb the results relative to the stock
// contention-free environment.
func TestScenarioChangesOutcomes(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification}
	plain, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), CellOptions{Schemes: []string{SchemeALERT}})
	if err != nil {
		t.Fatal(err)
	}
	throttled, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), CellOptions{
		Schemes: []string{SchemeALERT}, Scenario: "thermal",
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(plain.PerSetting[SchemeALERT], throttled.PerSetting[SchemeALERT]) {
		t.Error("thermal scenario produced identical results to the steady environment")
	}
}
