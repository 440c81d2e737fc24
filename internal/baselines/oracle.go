package baselines

import (
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// Oracle is the impractical upper bound of §5.1: for every input it
// evaluates every configuration with perfect knowledge of the slowdown that
// input will actually experience, then picks the feasible optimum. It has
// no overhead and never mispredicts; ALERT's headline claim is landing
// within 93–99 % of it.
type Oracle struct {
	name string
	spec core.Spec
	// fixedModel / fixedCap, when >= 0, restrict the search to one layer —
	// the App-level and Sys-level oracles of §2.3's Figure 6 study.
	fixedModel, fixedCap int
}

// NewOracle builds the dynamic oracle for a constraint spec.
func NewOracle(spec core.Spec) *Oracle {
	return &Oracle{name: "Oracle", spec: spec, fixedModel: -1, fixedCap: -1}
}

// NewAppOracle builds the application-level oracle of §2.3: clairvoyant DNN
// selection with the system pinned at the given cap index (the default
// setting).
func NewAppOracle(spec core.Spec, capIdx int) *Oracle {
	return &Oracle{name: "App-oracle", spec: spec, fixedModel: -1, fixedCap: capIdx}
}

// NewSysOracle builds the system-level oracle of §2.3: clairvoyant power
// selection with the DNN pinned (the default, highest-accuracy model).
func NewSysOracle(spec core.Spec, modelIdx int) *Oracle {
	return &Oracle{name: "Sys-oracle", spec: spec, fixedModel: modelIdx, fixedCap: -1}
}

// Name implements runner.Scheduler.
func (o *Oracle) Name() string { return o.name }

// SetSpec implements runner.SpecSetter (scenario spec churn): the oracle is
// clairvoyant about the environment and always optimizes the live spec.
func (o *Oracle) SetSpec(spec core.Spec) { o.spec = spec }

// Decide implements runner.Scheduler by exhaustive clairvoyant search.
func (o *Oracle) Decide(env *sim.Env, in workload.Input, goal float64) sim.Decision {
	prof := env.Prof
	xi := env.PeekXi(in)

	var best sim.Decision
	bestSet := false
	var bestEnergy, bestQuality float64

	consider := func(d sim.Decision) {
		out := env.EvaluateAt(d, in, goal, o.spec.Deadline)
		feasible := out.Latency <= goal
		switch o.spec.Objective {
		case core.MinimizeEnergy:
			feasible = feasible && out.Quality >= o.spec.AccuracyGoal
			if feasible && (!bestSet || out.Energy < bestEnergy) {
				best, bestEnergy, bestQuality, bestSet = d, out.Energy, out.Quality, true
			}
		case core.MaximizeAccuracy:
			feasible = feasible && (o.spec.EnergyBudget <= 0 || out.Energy <= o.spec.EnergyBudget)
			if feasible && (!bestSet || out.Quality > bestQuality ||
				(out.Quality == bestQuality && out.Energy < bestEnergy)) {
				best, bestEnergy, bestQuality, bestSet = d, out.Energy, out.Quality, true
			}
		}
	}

	for i := 0; i < prof.NumModels(); i++ {
		if o.fixedModel >= 0 && i != o.fixedModel {
			continue
		}
		m := prof.Models[i]
		for j := 0; j < prof.NumCaps(); j++ {
			if o.fixedCap >= 0 && j != o.fixedCap {
				continue
			}
			if !m.IsAnytime() {
				consider(sim.Decision{Model: i, Cap: j})
				continue
			}
			// With perfect knowledge the oracle can stop an anytime model
			// exactly as any stage completes (or run to the deadline).
			tFull := prof.At(i, j) * xi
			for k := range m.Stages {
				stop := tFull * m.Stages[k].LatencyFrac * (1 + 1e-9)
				consider(sim.Decision{Model: i, Cap: j, PlannedStop: stop})
			}
			consider(sim.Decision{Model: i, Cap: j}) // run to deadline
		}
	}

	if !bestSet {
		// Nothing feasible (e.g. an NLP word whose residual budget no
		// model can meet — the paper notes "There the Oracle fails, too").
		// Fall back to the latency-first hierarchy: fastest config at the
		// top cap, within whatever layer restriction applies.
		j := prof.NumCaps() - 1
		if o.fixedCap >= 0 {
			j = o.fixedCap
		}
		i := prof.FastestAt(j)
		if o.fixedModel >= 0 {
			i = o.fixedModel
		}
		d := sim.Decision{Model: i, Cap: j}
		if prof.Models[i].IsAnytime() {
			d.PlannedStop = goal
		}
		return d
	}
	return best
}

// Observe implements runner.Scheduler; the oracle needs no feedback.
func (o *Oracle) Observe(workload.Input, sim.Decision, sim.Outcome) {}

var _ runner.Scheduler = (*Oracle)(nil)

// Static pins one (model, cap) for the whole run; anytime models run to
// the deadline. It is the building block of OracleStatic.
type Static struct {
	name       string
	model, cap int
}

// NewStatic builds a fixed-configuration scheduler.
func NewStatic(name string, model, cap int) *Static {
	return &Static{name: name, model: model, cap: cap}
}

// Name implements runner.Scheduler.
func (s *Static) Name() string { return s.name }

// Decide implements runner.Scheduler.
func (s *Static) Decide(*sim.Env, workload.Input, float64) sim.Decision {
	return sim.Decision{Model: s.model, Cap: s.cap}
}

// Observe implements runner.Scheduler.
func (s *Static) Observe(workload.Input, sim.Decision, sim.Outcome) {}

var _ runner.Scheduler = (*Static)(nil)

// OracleStaticResult is the outcome of the exhaustive static search.
type OracleStaticResult struct {
	Record *metrics.Record
	Model  int
	Cap    int
}

// OracleStatic exhaustively replays the run under every static (model, cap)
// configuration — possible because the environment draws are decision-
// independent — and returns the best: among configurations whose violation
// rate stays within the 10 % rule, the one optimizing the objective;
// otherwise the one with the fewest violations. This is "the best results
// without dynamic adaptation" (§5.1).
func OracleStatic(cfg runner.Config) OracleStaticResult {
	prof := cfg.Prof
	var best OracleStaticResult
	bestSet := false

	betterRecord := func(a, b *metrics.Record) bool {
		av, bv := a.SettingViolated(), b.SettingViolated()
		if av != bv {
			return !av
		}
		if av && bv {
			if a.ViolationRate() != b.ViolationRate() {
				return a.ViolationRate() < b.ViolationRate()
			}
		}
		switch cfg.Spec.Objective {
		case core.MinimizeEnergy:
			return a.AvgEnergy() < b.AvgEnergy()
		default:
			return a.AvgQuality() > b.AvgQuality()
		}
	}

	for i := 0; i < prof.NumModels(); i++ {
		for j := 0; j < prof.NumCaps(); j++ {
			rec := runner.Run(cfg, NewStatic("OracleStatic", i, j), nil)
			if !bestSet || betterRecord(rec, best.Record) {
				best = OracleStaticResult{Record: rec, Model: i, Cap: j}
				bestSet = true
			}
		}
	}
	if !bestSet {
		panic("baselines: empty configuration space")
	}
	return best
}
