package experiment

import (
	"fmt"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
)

// Fig10Group is one candidate-set column of Figure 10: the distribution
// over constraint settings of average perplexity for ALERT and for the
// mean-only ablation ALERT*.
type Fig10Group struct {
	CandidateSet string // "Standard", "Trad. Only", "Any. Only"
	Alert        mathx.BoxStats
	AlertStar    mathx.BoxStats
}

// Fig10Result evaluates ALERT's probabilistic design (§5.3): minimize
// error for sentence prediction on CPU1, reporting perplexity (lower is
// better), under the Default and Memory environments.
type Fig10Result struct {
	Scenario contention.Scenario
	Groups   []Fig10Group
}

// RunFig10 reproduces one subplot of Figure 10.
func RunFig10(scenario contention.Scenario, sc Scale) (*Fig10Result, error) {
	plat, err := platform.ByName("CPU1")
	if err != nil {
		return nil, err
	}
	profs, err := BuildProfiles(plat, dnn.SentencePrediction)
	if err != nil {
		return nil, err
	}
	sets := []struct {
		name string
		prof *dnn.ProfileTable
	}{
		{"Standard", profs.Full},
		{"Trad. Only", profs.Trad},
		{"Any. Only", profs.Any},
	}

	res := &Fig10Result{Scenario: scenario}
	for _, set := range sets {
		grid := ErrorTaskGrid(set.prof, scenario, sc)
		var alertPPL, starPPL []float64
		for si, setting := range grid {
			seed := sc.Seed + int64(si)*7919
			cfg := runner.Config{
				Prof:      set.prof,
				Scenario:  scenario,
				Spec:      setting.Spec,
				NumInputs: sc.Inputs,
				Seed:      seed,
			}
			opts := core.DefaultOptions()
			alert := baselines.NewAlert("ALERT", set.prof, setting.Spec, opts)
			alertPPL = append(alertPPL, avgPerplexity(runner.Run(cfg, alert, nil)))

			opts.UseVariance = false
			star := baselines.NewAlert("ALERT*", set.prof, setting.Spec, opts)
			starPPL = append(starPPL, avgPerplexity(runner.Run(cfg, star, nil)))
		}
		res.Groups = append(res.Groups, Fig10Group{
			CandidateSet: set.name,
			Alert:        mathx.Box(alertPPL),
			AlertStar:    mathx.Box(starPPL),
		})
	}
	return res, nil
}

// avgPerplexity converts a record's per-input qualities to mean perplexity.
func avgPerplexity(rec *metrics.Record) float64 {
	var sum float64
	n := 0
	for _, q := range rec.Qualities() {
		sum += dnn.PerplexityFromQuality(q)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table lays one Figure 10 subplot out as one row per candidate set, with
// the mean, min and max perplexity of ALERT and ALERT*.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		ID: "fig10-" + r.Scenario.String(),
		Title: []string{fmt.Sprintf("Figure 10 (%s contention): minimize error for sentence prediction @ CPU1 — average perplexity, lower is better",
			r.Scenario)},
		Cols: append([]Column{{"Candidates", 0}},
			cols(1, "ALERT mean", "ALERT min", "ALERT max", "ALERT* mean", "ALERT* min", "ALERT* max")...),
	}
	for _, g := range r.Groups {
		t.Add(g.CandidateSet, g.Alert.Mean, g.Alert.Min, g.Alert.Max, g.AlertStar.Mean, g.AlertStar.Min, g.AlertStar.Max)
	}
	return t
}
