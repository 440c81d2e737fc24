package experiment

import (
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
)

// contentionMargin is the latency headroom the experimenters leave when
// choosing "achievable" accuracy goals for an environment: goals are drawn
// from the range reachable when inference is slowed by the scenario's
// typical co-runner. Without it, grids would contain settings no scheme —
// not even the Oracle — can satisfy, which the paper's setup avoids (ALERT
// satisfies constraints in ~99 % of its tests, §5.2).
func contentionMargin(sc contention.Scenario) float64 {
	switch sc {
	case contention.Compute:
		return 1.5
	case contention.Memory:
		return 1.65
	default:
		return 1.08
	}
}

// Setting is one point of a constraint grid: a fully specified core.Spec
// plus the factors that generated it (for labelling output rows).
type Setting struct {
	Spec           core.Spec
	DeadlineFactor float64
	Level          int
}

// referenceLatency returns Table 3's deadline yardstick: the mean latency of
// the largest anytime DNN "measured under default setting without resource
// contention" — i.e. its profiled latency at the default (maximum) cap. If
// the set has no anytime model, the slowest model stands in.
func referenceLatency(prof *dnn.ProfileTable) float64 {
	top := prof.NumCaps() - 1
	best, bestLat := -1, 0.0
	for i, m := range prof.Models {
		if m.IsAnytime() && prof.At(i, top) > bestLat {
			best, bestLat = i, prof.At(i, top)
		}
	}
	if best < 0 {
		for i := range prof.Models {
			if prof.At(i, top) > bestLat {
				best, bestLat = i, prof.At(i, top)
			}
		}
	}
	return bestLat
}

// maxAccuracyWithin returns the highest final accuracy any candidate can
// deliver with nominal latency inside the deadline at some cap (anytime
// models contribute their best stage that fits).
func maxAccuracyWithin(prof *dnn.ProfileTable, deadline float64) float64 {
	best := 0.0
	top := prof.NumCaps() - 1
	for i, m := range prof.Models {
		t := prof.At(i, top)
		if !m.IsAnytime() {
			if t <= deadline && m.Accuracy > best {
				best = m.Accuracy
			}
			continue
		}
		for _, s := range m.Stages {
			if t*s.LatencyFrac <= deadline && s.Accuracy > best {
				best = s.Accuracy
			}
		}
	}
	return best
}

// minAccuracy returns the lowest useful accuracy in the candidate set (the
// weakest first-stage or smallest traditional model).
func minAccuracy(prof *dnn.ProfileTable) float64 {
	best := 1.0
	for _, m := range prof.Models {
		q := m.Accuracy
		if m.IsAnytime() {
			q = m.Stages[0].Accuracy
		}
		if q < best {
			best = q
		}
	}
	return best
}

// EnergyTaskGrid builds the constraint settings for the minimize-energy
// task (Eq. 2): deadline x accuracy-goal combinations. Accuracy goals span
// "the whole range achievable by trad. and Anytime DNN" (Table 3), kept
// achievable under each deadline so the grid matches the paper's setup
// where ALERT satisfies constraints in ~99 % of tests.
func EnergyTaskGrid(prof *dnn.ProfileTable, env contention.Scenario, sc Scale) []Setting {
	ref := referenceLatency(prof)
	lo := minAccuracy(prof)
	margin := contentionMargin(env)
	var out []Setting
	for _, f := range sc.DeadlineFactors {
		deadline := f * ref
		hi := maxAccuracyWithin(prof, deadline/margin)
		if hi <= lo {
			hi = lo + 0.001
		}
		for lvl := 0; lvl < sc.OtherLevels; lvl++ {
			frac := float64(lvl) / float64(max(sc.OtherLevels-1, 1))
			// The top level sits slightly below the best achievable
			// accuracy: a goal placed exactly at the frontier turns every
			// graceful degradation into a violation by rounding.
			goal := lo + (hi-lo)*frac*0.94
			out = append(out, Setting{
				Spec: core.Spec{
					Objective:    core.MinimizeEnergy,
					Deadline:     deadline,
					AccuracyGoal: goal,
				},
				DeadlineFactor: f,
				Level:          lvl,
			})
		}
	}
	return out
}

// ErrorTaskGrid builds the constraint settings for the minimize-error task
// (Eq. 1): deadline x energy-budget combinations. Budgets span "the whole
// feasible power-cap range on the machine" (Table 3): budget_k = cap_k x
// deadline for cap levels swept across the platform ladder.
func ErrorTaskGrid(prof *dnn.ProfileTable, env contention.Scenario, sc Scale) []Setting {
	ref := referenceLatency(prof)
	plat := prof.Platform
	var out []Setting
	for _, f := range sc.DeadlineFactors {
		deadline := f * ref
		for lvl := 0; lvl < sc.OtherLevels; lvl++ {
			frac := float64(lvl) / float64(max(sc.OtherLevels-1, 1))
			// Sweep the power envelope from a bit above the idle floor to
			// the full cap; the very bottom of the ladder cannot absorb
			// contention slowdowns and would be infeasible for everyone.
			capLevel := plat.PMin + (plat.PMax-plat.PMin)*(0.2+0.8*frac)
			budget := capLevel * deadline
			out = append(out, Setting{
				Spec: core.Spec{
					Objective:    core.MaximizeAccuracy,
					Deadline:     deadline,
					EnergyBudget: budget,
				},
				DeadlineFactor: f,
				Level:          lvl,
			})
		}
	}
	return out
}

// GridFor dispatches on the objective.
func GridFor(obj core.Objective, prof *dnn.ProfileTable, env contention.Scenario, sc Scale) []Setting {
	if obj == core.MinimizeEnergy {
		return EnergyTaskGrid(prof, env, sc)
	}
	return ErrorTaskGrid(prof, env, sc)
}
