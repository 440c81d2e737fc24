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
// ALERT variant, every constraint setting, with per-input records kept —
// must be byte-identical whether the controllers score with the optimized
// hot path or the naive reference scorer.
func TestGridCellFastPathMatchesReference(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Memory}
	schemes := []string{SchemeALERT, SchemeALERTStar, SchemeALERTAny}
	base := CellOptions{Schemes: schemes, KeepRecords: true}

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
	for _, id := range schemes {
		for si := range fast.RawRecords[id] {
			if !reflect.DeepEqual(fast.RawRecords[id][si].Samples, ref.RawRecords[id][si].Samples) {
				t.Errorf("scheme %s setting %d: per-input samples diverge", id, si)
			}
		}
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
