package experiment

import (
	"fmt"
	"strings"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// Fig11Histogram is the ξ distribution for one environment: the observed
// per-input slowdown factors and the Gaussian the Kalman filter fits.
type Fig11Histogram struct {
	Scenario contention.Scenario
	// Bins partition [Lo, Hi) evenly; Freq sums to 1.
	Lo, Hi float64
	Freq   []float64
	// MuHat / SigmaHat are the time-averaged filter estimates — the blue
	// "Estimation" curve of Figure 11.
	MuHat, SigmaHat float64
	// Stats summarizes the raw observations.
	Stats mathx.BoxStats
}

// Fig11Result reproduces the ξ-distribution study (§5.3, Fig. 11): image
// classification on CPU1 under the three environments. The paper's point
// is that the observations are *not* perfectly Gaussian and ALERT is
// robust to that.
type Fig11Result struct {
	Histograms []Fig11Histogram
}

// RunFig11 collects observed ξ values while ALERT runs a representative
// constraint setting, together with the filter's running estimate.
func RunFig11(sc Scale) (*Fig11Result, error) {
	plat, err := platform.ByName("CPU1")
	if err != nil {
		return nil, err
	}
	profs, err := BuildProfiles(plat, dnn.ImageClassification)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for _, scenario := range contention.Scenarios() {
		grid := EnergyTaskGrid(profs.Full, scenario, sc)
		setting := grid[len(grid)/2]
		cfg := runner.Config{
			Prof:      profs.Full,
			Scenario:  scenario,
			Spec:      setting.Spec,
			NumInputs: sc.Inputs * 2,
			Seed:      sc.Seed,
		}
		sched := baselines.NewAlert(SchemeALERT, profs.Full, setting.Spec, core.DefaultOptions())
		var xis []float64
		var muSum, sdSum float64
		runner.Run(cfg, sched, func(_ workload.Input, _ sim.Decision, out sim.Outcome) {
			xis = append(xis, out.TrueXi)
			muSum += sched.Session().XiMean()
			sdSum += sched.Session().XiStd()
		})

		h := Fig11Histogram{
			Scenario: scenario,
			MuHat:    muSum / float64(len(xis)),
			SigmaHat: sdSum / float64(len(xis)),
			Stats:    mathx.Box(xis),
		}
		h.Lo, h.Hi = h.Stats.Min, h.Stats.Max*1.0001
		const bins = 20
		h.Freq = make([]float64, bins)
		for _, x := range xis {
			b := int((x - h.Lo) / (h.Hi - h.Lo) * bins)
			if b >= bins {
				b = bins - 1
			}
			h.Freq[b] += 1 / float64(len(xis))
		}
		res.Histograms = append(res.Histograms, h)
	}
	return res, nil
}

// Table lays Figure 11 out in one section per environment and one row per
// histogram bin, with an ASCII bar; the fitted Gaussians are notes.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		ID:        "fig11",
		Title:     []string{"Figure 11: distribution of ξ for image classification on CPU1"},
		Sectioned: true,
		Cols:      []Column{{"Scenario", 0}, {"ξ from", 3}, {"freq", 3}, {"histogram", 0}},
	}
	for _, h := range r.Histograms {
		width := (h.Hi - h.Lo) / float64(len(h.Freq))
		for i, f := range h.Freq {
			t.Add(h.Scenario.String(), h.Lo+float64(i)*width, f, strings.Repeat("#", int(f*200+0.5)))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: observed ξ in [%.3f, %.3f], KF fit N(µ=%.3f, σ=%.3f)",
			h.Scenario, h.Stats.Min, h.Stats.Max, h.MuHat, h.SigmaHat))
	}
	return t
}
