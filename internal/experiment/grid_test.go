package experiment

import (
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
)

func profFor(t *testing.T) *dnn.ProfileTable {
	t.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestScaleSettings(t *testing.T) {
	full := FullScale()
	if got := settings(full); got < 35 || got > 40 {
		t.Errorf("full scale has %d settings, Table 4's caption says 35-40", got)
	}
	if settings(QuickScale()) >= settings(full) {
		t.Error("quick scale should be smaller")
	}
}

func TestEnergyGridShape(t *testing.T) {
	prof := profFor(t)
	sc := FullScale()
	grid := EnergyTaskGrid(prof, contention.Default, sc)
	if len(grid) != settings(sc) {
		t.Fatalf("grid size %d", len(grid))
	}
	ref := referenceLatency(prof)
	for _, s := range grid {
		if s.Spec.Objective != core.MinimizeEnergy {
			t.Fatal("wrong objective")
		}
		if s.Spec.Deadline < 0.39*ref || s.Spec.Deadline > 2.01*ref {
			t.Errorf("deadline %g outside Table 3's 0.4x-2x range", s.Spec.Deadline)
		}
		if s.Spec.AccuracyGoal <= 0 || s.Spec.AccuracyGoal >= 1 {
			t.Errorf("accuracy goal %g", s.Spec.AccuracyGoal)
		}
		if s.Spec.EnergyBudget != 0 {
			t.Error("energy budget must be unset in the min-energy task")
		}
	}
}

func TestEnergyGridGoalsAchievableUnderContention(t *testing.T) {
	prof := profFor(t)
	for _, env := range contention.Scenarios() {
		for _, s := range EnergyTaskGrid(prof, env, QuickScale()) {
			hi := maxAccuracyWithin(prof, s.Spec.Deadline/contentionMargin(env))
			if s.Spec.AccuracyGoal > hi {
				t.Errorf("%v: goal %g above contention-safe achievable %g",
					env, s.Spec.AccuracyGoal, hi)
			}
		}
	}
}

func TestErrorGridShape(t *testing.T) {
	prof := profFor(t)
	sc := FullScale()
	grid := ErrorTaskGrid(prof, contention.Default, sc)
	if len(grid) != settings(sc) {
		t.Fatalf("grid size %d", len(grid))
	}
	plat := prof.Platform
	for _, s := range grid {
		if s.Spec.Objective != core.MaximizeAccuracy {
			t.Fatal("wrong objective")
		}
		// Budget corresponds to an average wattage inside the platform's
		// envelope.
		watts := s.Spec.EnergyBudget / s.Spec.Deadline
		if watts < plat.PMin || watts > plat.PMax+1e-9 {
			t.Errorf("budget wattage %g outside [%g, %g]", watts, plat.PMin, plat.PMax)
		}
	}
}

func TestReferenceLatencyIsLargestAnytime(t *testing.T) {
	prof := profFor(t)
	ref := referenceLatency(prof)
	nest := prof.ModelIndex("DepthNest")
	if ref != prof.At(nest, prof.NumCaps()-1) {
		t.Errorf("reference latency %g should be the anytime model's", ref)
	}
	// Traditional-only sets fall back to the slowest model.
	tradProf, _ := dnn.Profile(platform.CPU1(), dnn.Traditional(dnn.ImageCandidates()))
	xl := tradProf.ModelIndex("SparseResNet-XL")
	if referenceLatency(tradProf) != tradProf.At(xl, tradProf.NumCaps()-1) {
		t.Error("traditional fallback wrong")
	}
}

func TestGridForDispatch(t *testing.T) {
	prof := profFor(t)
	sc := QuickScale()
	if GridFor(core.MinimizeEnergy, prof, contention.Default, sc)[0].Spec.Objective != core.MinimizeEnergy {
		t.Error("dispatch energy")
	}
	if GridFor(core.MaximizeAccuracy, prof, contention.Default, sc)[0].Spec.Objective != core.MaximizeAccuracy {
		t.Error("dispatch error")
	}
}

// settings is the number of constraint settings per grid at scale s.
func settings(s Scale) int { return len(s.DeadlineFactors) * s.OtherLevels }
