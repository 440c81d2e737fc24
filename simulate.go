package alert

import (
	"fmt"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// SimConfig describes one simulated deployment: the paper's evaluation
// setup in miniature. It lets library users exercise the scheduler
// end-to-end — including contention dynamics and anytime early-stopping —
// without hardware access or trained networks.
type SimConfig struct {
	// Platform defaults to CPU1.
	Platform *Platform
	// Models defaults to ImageCandidates().
	Models []*Model
	// Spec is the requirement to enforce; Deadline must be positive.
	Spec Spec
	// Contention selects the environment (default: NoContention).
	Contention Contention
	// Bursts, when non-empty, overrides Contention with a scripted
	// schedule of contention windows over input indices.
	Bursts []Burst
	// Inputs is the stream length (default 300).
	Inputs int
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Trace, when set, observes every input's decision and measurement.
	Trace func(TraceSample)
}

// TraceSample is one input's record in a simulation trace.
type TraceSample struct {
	Input       int
	GoalSeconds float64
	Decision    Decision
	Latency     float64
	Energy      float64
	Quality     float64
	DeadlineMet bool
	TrueXi      float64
	ModelName   string
	Contention  bool
}

// SimReport summarizes a simulation run.
type SimReport struct {
	Inputs           int
	AvgLatency       float64
	AvgEnergy        float64
	AvgQuality       float64
	ViolationRate    float64
	DeadlineMissRate float64
}

// Simulate runs the ALERT scheduler over a simulated input stream and
// returns the aggregate report.
func Simulate(cfg SimConfig) (*SimReport, error) { return simulate(cfg, Options{}) }

// simulate is Simulate with the scheduler built under opts; the ALERT*
// ablation test sets DisableVariance through it.
func simulate(cfg SimConfig, opts Options) (*SimReport, error) {
	if cfg.Platform == nil {
		cfg.Platform = CPU1()
	}
	if cfg.Models == nil {
		cfg.Models = ImageCandidates()
	}
	if cfg.Inputs <= 0 {
		cfg.Inputs = 300
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Spec.Deadline <= 0 {
		return nil, fmt.Errorf("alert: SimConfig.Spec.Deadline must be positive")
	}

	prof, err := dnn.Profile(cfg.Platform, cfg.Models)
	if err != nil {
		return nil, fmt.Errorf("alert: %w", err)
	}

	rcfg := runner.Config{
		Prof:      prof,
		Scenario:  cfg.Contention,
		Spec:      cfg.Spec,
		NumInputs: cfg.Inputs,
		Seed:      cfg.Seed,
	}
	var env *sim.Env
	if len(cfg.Bursts) > 0 {
		cont := contention.NewScripted(cfg.Platform.Kind, cfg.Seed*3+2, cfg.Bursts...)
		env = sim.NewEnv(prof, cont, cfg.Seed*3+3)
	} else {
		env = rcfg.NewEnv()
	}

	sched := baselines.NewAlert("ALERT", prof, cfg.Spec, coreOptions(opts))
	var trace func(in workload.Input, d sim.Decision, out sim.Outcome)
	if cfg.Trace != nil {
		trace = func(in workload.Input, d sim.Decision, out sim.Outcome) {
			cfg.Trace(TraceSample{
				Input:       in.ID,
				GoalSeconds: cfg.Spec.Deadline,
				Decision: Decision{
					Model:       d.Model,
					Cap:         d.Cap,
					CapW:        out.CapApplied,
					PlannedStop: d.PlannedStop,
					Overhead:    d.Overhead,
				},
				Latency:     out.Latency,
				Energy:      out.Energy,
				Quality:     out.Quality,
				DeadlineMet: out.DeadlineMet,
				TrueXi:      out.TrueXi,
				ModelName:   prof.Models[d.Model].Name,
				Contention:  out.ContentionActive,
			})
		}
	}
	rec := runner.RunEnv(rcfg, env, sched, trace)
	return &SimReport{
		Inputs:           rec.N(),
		AvgLatency:       rec.AvgLatency(),
		AvgEnergy:        rec.AvgEnergy(),
		AvgQuality:       rec.AvgQuality(),
		ViolationRate:    rec.ViolationRate(),
		DeadlineMissRate: rec.DeadlineMissRate(),
	}, nil
}
