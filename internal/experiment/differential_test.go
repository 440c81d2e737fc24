package experiment

import (
	"reflect"
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
)

// TestGridCellFastPathMatchesReference is the experiment-grid leg of the
// decide-fast-path differential criterion: a full Table 4 cell — every
// ALERT variant, every constraint setting — must be byte-identical whether
// the controllers score with the optimized hot path or the naive reference
// scorer. The per-input leg of the same criterion is the runner's
// TestAlertFastPathMatchesReferenceOverTraces.
func TestGridCellFastPathMatchesReference(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Memory}
	schemes := []string{SchemeALERT, SchemeALERTStar, SchemeALERTAny}
	base := CellOptions{Schemes: schemes}

	fast, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), base)
	if err != nil {
		t.Fatal(err)
	}
	refOpts := base
	refOpts.ReferenceScorer = true
	ref, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.Norm, ref.Norm) {
		t.Error("normalized cell diverges between fast and reference scorers")
	}
	if !reflect.DeepEqual(fast.PerSetting, ref.PerSetting) {
		t.Error("per-setting aggregates diverge between fast and reference scorers")
	}
}

// TestScenarioCellFastPathMatchesReference repeats the comparison along the
// scenario dimension, where compiled-trace spec churn retargets the
// controllers mid-stream — the regime where the scan's running best, and
// with it what gets pruned, changes the most from input to input.
func TestScenarioCellFastPathMatchesReference(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification}
	base := CellOptions{Schemes: []string{SchemeALERT}, Scenario: "churn"}

	fast, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), base)
	if err != nil {
		t.Fatal(err)
	}
	refOpts := base
	refOpts.ReferenceScorer = true
	ref, err := RunCell(key, core.MinimizeEnergy, scenarioScale(), refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast.PerSetting, ref.PerSetting) {
		t.Error("scenario cell diverges between fast and reference scorers")
	}
}
