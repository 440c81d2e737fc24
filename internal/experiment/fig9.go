package experiment

import (
	"fmt"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// Fig9Sample is one input of the Figure 9 trace.
type Fig9Sample struct {
	Input      int
	Latency    float64
	CapW       float64
	Quality    float64
	ModelName  string
	UsedAny    bool
	Contention bool
}

// Fig9Trace is one scheme's trajectory.
type Fig9Trace struct {
	Scheme  string
	Samples []Fig9Sample
}

// Fig9Result reproduces the dynamic-behaviour study: ALERT vs ALERT-Trad
// minimizing error under latency and energy constraints on CPU1 while a
// memory-contention burst covers inputs 46–119 of 160.
type Fig9Result struct {
	Deadline    float64
	PowerLimitW float64
	BurstStart  int
	BurstEnd    int
	Traces      []Fig9Trace
}

// RunFig9 runs the scripted trace for both schemes over identical draws.
func RunFig9(sc Scale) (*Fig9Result, error) {
	plat, err := platform.ByName("CPU1")
	if err != nil {
		return nil, err
	}
	profs, err := BuildProfiles(plat, dnn.ImageClassification)
	if err != nil {
		return nil, err
	}
	// Deadline: 1.25x mean latency of the largest anytime DNN in Default;
	// power limit 35 W (figure caption).
	deadline := 1.25 * referenceLatency(profs.Full)
	const limitW = 35.0
	spec := core.Spec{
		Objective:    core.MaximizeAccuracy,
		Deadline:     deadline,
		EnergyBudget: limitW * deadline,
	}
	const inputs = 160
	const burstStart, burstEnd = 46, 119

	res := &Fig9Result{
		Deadline:    deadline,
		PowerLimitW: limitW,
		BurstStart:  burstStart,
		BurstEnd:    burstEnd,
	}

	run := func(name string, prof *dnn.ProfileTable) error {
		cfg := runner.Config{
			Prof:      prof,
			Spec:      spec,
			NumInputs: inputs,
			Seed:      sc.Seed,
		}
		cont := contention.NewScripted(plat.Kind, sc.Seed+77,
			contention.Burst{Start: burstStart, End: burstEnd, Scenario: contention.Memory})
		env := sim.NewEnv(prof, cont, sc.Seed*3+3)
		sched := baselines.NewAlert(name, prof, spec, core.DefaultOptions())
		trace := Fig9Trace{Scheme: name}
		runner.RunEnv(cfg, env, sched, func(in workload.Input, d sim.Decision, out sim.Outcome) {
			m := prof.Models[d.Model]
			trace.Samples = append(trace.Samples, Fig9Sample{
				Input:      in.ID,
				Latency:    out.Latency,
				CapW:       out.CapApplied,
				Quality:    out.Quality,
				ModelName:  m.Name,
				UsedAny:    m.IsAnytime(),
				Contention: out.ContentionActive,
			})
		})
		res.Traces = append(res.Traces, trace)
		return nil
	}

	if err := run("ALERT", profs.Full); err != nil {
		return nil, err
	}
	if err := run("ALERT-Trad", profs.Trad); err != nil {
		return nil, err
	}
	return res, nil
}

// MeanQuality returns a trace's average quality over an input range.
func (t *Fig9Trace) MeanQuality(from, to int) float64 {
	var sum float64
	n := 0
	for _, s := range t.Samples {
		if s.Input >= from && s.Input < to {
			sum += s.Quality
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AnytimeShare returns the fraction of inputs in the range served by an
// anytime model.
func (t *Fig9Trace) AnytimeShare(from, to int) float64 {
	var any, n int
	for _, s := range t.Samples {
		if s.Input >= from && s.Input < to {
			if s.UsedAny {
				any++
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(any) / float64(n)
}

// Table lays Figure 9 out in one section per scheme and one row per input,
// with each trace's burst summary as a note.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		ID: "fig9",
		Title: []string{
			fmt.Sprintf("Figure 9: minimize error under latency %.3fs and power %gW constraints (CPU1)",
				r.Deadline, r.PowerLimitW),
			fmt.Sprintf("memory contention active on inputs [%d, %d)", r.BurstStart, r.BurstEnd),
		},
		Sectioned: true,
		Cols: []Column{{"Scheme", 0}, {"input", 0}, {"latency(s)", 4}, {"cap(W)", 1}, {"quality", 4},
			{"model", 0}, {"anytime", 0}, {"cont", 0}},
	}
	for _, tr := range r.Traces {
		for _, s := range tr.Samples {
			t.Add(tr.Scheme, s.Input, s.Latency, s.CapW, s.Quality, s.ModelName, mark(s.UsedAny), mark(s.Contention))
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s mean quality: pre-burst %.4f | burst %.4f | post-burst %.4f; anytime share in burst %.0f%%",
			tr.Scheme, tr.MeanQuality(0, r.BurstStart), tr.MeanQuality(r.BurstStart, r.BurstEnd),
			tr.MeanQuality(r.BurstEnd, len(tr.Samples)), 100*tr.AnytimeShare(r.BurstStart, r.BurstEnd)))
	}
	return t
}
