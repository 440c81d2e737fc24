package experiment

import (
	"fmt"
	"math"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
)

// Fig6Point is one constraint setting of the §2.3 single-layer study.
type Fig6Point struct {
	Deadline     float64
	AccuracyGoal float64
	// Energies per scheme; +Inf when the scheme cannot meet the setting.
	SysOnly, AppOnly, Combined float64
}

// Fig6Result compares the App-level, Sys-level, and Combined oracles over
// the ImageNet zoo on CPU1 across deadlines 0.1–0.7 s and accuracy goals
// 85–95 % while minimizing energy.
type Fig6Result struct {
	Points []Fig6Point
	// AppOverCombined is the mean energy ratio across settings both can
	// meet (the paper reports App-only using ~60 % more energy).
	AppOverCombined float64
	// SysInfeasibleBelow is the smallest deadline the Sys-level oracle
	// could meet at any accuracy goal (paper: nothing below 0.3 s).
	SysInfeasibleBelow float64
}

// RunFig6 reproduces Figure 6.
func RunFig6(sc Scale) (*Fig6Result, error) {
	plat := platform.CPU1()
	zoo := dnn.ImageNetZoo(sc.Seed)
	prof, err := dnn.Profile(plat, zoo)
	if err != nil {
		return nil, err
	}
	defaultCap := prof.CapIndex(plat.DefaultCap)
	defaultModel := prof.ModelIndex(dnn.MostAccurate(zoo).Name)

	deadlines := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	accGoals := []float64{0.85, 0.875, 0.90, 0.925, 0.95}

	res := &Fig6Result{SysInfeasibleBelow: math.Inf(1)}
	var ratios []float64
	for _, T := range deadlines {
		for _, Q := range accGoals {
			spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: T, AccuracyGoal: Q}
			cfg := runner.Config{
				Prof:      prof,
				Scenario:  contention.Default,
				Spec:      spec,
				NumInputs: sc.Inputs / 2, // §2.3 used 90 inputs
				Seed:      sc.Seed + int64(1000*T) + int64(10000*Q),
			}
			point := Fig6Point{Deadline: T, AccuracyGoal: Q}
			point.SysOnly = oracleEnergy(cfg, baselines.NewSysOracle(spec, defaultModel))
			point.AppOnly = oracleEnergy(cfg, baselines.NewAppOracle(spec, defaultCap))
			point.Combined = oracleEnergy(cfg, baselines.NewOracle(spec))
			res.Points = append(res.Points, point)

			if !math.IsInf(point.SysOnly, 1) && T < res.SysInfeasibleBelow {
				res.SysInfeasibleBelow = T
			}
			if !math.IsInf(point.AppOnly, 1) && !math.IsInf(point.Combined, 1) {
				ratios = append(ratios, point.AppOnly/point.Combined)
			}
		}
	}
	if len(ratios) > 0 {
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		res.AppOverCombined = sum / float64(len(ratios))
	}
	return res, nil
}

// oracleEnergy runs a (possibly layer-restricted) oracle and returns its
// average energy, or +Inf when the oracle violates constraints on more
// than 10 % of inputs — the ∞ bars of Figure 6.
func oracleEnergy(cfg runner.Config, o runner.Scheduler) float64 {
	rec := runner.Run(cfg, o, nil)
	if rec.SettingViolated() {
		return math.Inf(1)
	}
	return rec.AvgEnergy()
}

// Table lays Figure 6 out as one row per constraint setting; an oracle that
// cannot meet the setting shows "inf".
func (r *Fig6Result) Table() *Table {
	t := &Table{
		ID:    "fig6",
		Title: []string{"Figure 6: minimize energy with latency+accuracy constraints, single-layer vs combined oracles (CPU1)"},
		Cols:  append([]Column{{"Deadline", 2}, {"AccGoal", 3}}, cols(2, "Sys-level", "App-level", "Combined")...),
		Notes: []string{
			fmt.Sprintf("App-level / Combined mean energy ratio: %.2f (paper: ~1.6)", r.AppOverCombined),
			fmt.Sprintf("Sys-level feasible only at deadlines >= %.2fs (paper: >= 0.3s)", r.SysInfeasibleBelow),
		},
	}
	for _, p := range r.Points {
		t.Add(p.Deadline, p.AccuracyGoal, p.SysOnly, p.AppOnly, p.Combined)
	}
	return t
}
