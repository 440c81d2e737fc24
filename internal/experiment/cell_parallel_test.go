package experiment

import (
	"math"
	"reflect"
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
)

// TestRunCellParallelMatchesSerial is the determinism contract of the
// parallel grid: a cell run at any parallelism must be byte-identical to
// the serial run, because every setting derives its own seed.
func TestRunCellParallelMatchesSerial(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Memory}
	sc := QuickScale()
	sc.Inputs = 40
	schemes := []string{SchemeALERT, SchemeAppOnly}

	serial, err := RunCell(key, core.MinimizeEnergy, sc, CellOptions{Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	sc.Parallelism = 4
	parallel, err := RunCell(key, core.MinimizeEnergy, sc, CellOptions{Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.PerSetting, parallel.PerSetting) {
		t.Error("per-setting results diverge between serial and parallel runs")
	}
	for _, id := range append([]string{}, schemes...) {
		s, p := serial.Norm[id], parallel.Norm[id]
		if s.ViolatedSettings != p.ViolatedSettings || s.Settings != p.Settings {
			t.Errorf("%s: violation counts diverge: serial %+v parallel %+v", id, s, p)
		}
		if s.NormValue != p.NormValue && !(math.IsNaN(s.NormValue) && math.IsNaN(p.NormValue)) {
			t.Errorf("%s: normalized value %v (serial) vs %v (parallel)", id, s.NormValue, p.NormValue)
		}
	}
}
