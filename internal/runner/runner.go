// Package runner executes one scheduling scheme over one workload stream in
// one simulated environment and records what the paper's evaluation
// measures. It is deliberately scheme-agnostic: ALERT, the single-layer
// baselines, and the oracles all implement the same Scheduler interface, so
// every number in Tables 4–5 and Figures 6–11 flows through this one loop.
//
// The per-input loop itself is Loop, and it is the only copy: cmd/alertload
// and the chaos harness (internal/chaos) step the same Loop around a served
// decision. Two accountings ride on it. Run books each input's execution
// latency against its adjusted goal — the paper's per-input view, in which
// the deadline tracker's slack redistribution is part of the goal. A served
// stream books its response time, queueing wait included, against the
// requested deadline — the caller's view of an SLO.
package runner

import (
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// Scheduler picks a configuration for each input. Feedback schedulers use
// only their own observations; oracle schedulers may interrogate the
// environment (sim.Env.EvaluateAt / PeekXi), which on real hardware would
// require a time machine.
type Scheduler interface {
	// Name identifies the scheme in records and tables.
	Name() string
	// Decide selects the configuration for input in with the adjusted
	// latency goal.
	Decide(env *sim.Env, in workload.Input, goal float64) sim.Decision
	// Observe feeds back the measured outcome of the input just executed.
	Observe(in workload.Input, d sim.Decision, out sim.Outcome)
}

// SpecSetter is implemented by schedulers that can retarget to a changed
// requirement mid-stream (scenario spec churn). Schedulers without it keep
// optimizing for the spec they were built with while the accounting follows
// the churned spec — the honest model of a runtime that was never told the
// requirement moved.
type SpecSetter interface {
	SetSpec(core.Spec)
}

// Config describes one run: a profiled candidate set on a platform, an
// environment scenario, the constraint spec, and the stream length.
type Config struct {
	Prof      *dnn.ProfileTable
	Scenario  contention.Scenario
	Spec      core.Spec
	NumInputs int
	Seed      int64
	// Trace, when set, replaces Scenario as the disturbance source (the
	// compiled scenario trace replays through the same contention.Source
	// interface) and supplies per-input spec churn, which Run applies to
	// the deadline tracker, the violation accounting, and any scheduler
	// implementing SpecSetter.
	Trace *scenario.Trace
}

// streamSeed/contSeed/envSeed derive the three independent substream seeds
// so every scheme sees the identical input sequence and identical
// environment draws — the property that makes OracleStatic's exhaustive
// search and all cross-scheme comparisons apples-to-apples.
func (c Config) streamSeed() int64 { return c.Seed*3 + 1 }
func (c Config) contSeed() int64   { return c.Seed*3 + 2 }
func (c Config) envSeed() int64    { return c.Seed*3 + 3 }

// NewEnv builds the simulation environment for this config: a fresh replay
// cursor over the scenario trace when one is set, the stock stochastic
// co-runner source otherwise.
func (c Config) NewEnv() *sim.Env {
	if c.Trace != nil {
		return sim.NewEnv(c.Prof, c.Trace.Source(), c.envSeed())
	}
	cont := contention.NewSource(c.Scenario, c.Prof.Platform.Kind, c.contSeed())
	return sim.NewEnv(c.Prof, cont, c.envSeed())
}

// NewStream builds the input stream for this config.
func (c Config) NewStream() workload.Stream {
	task := c.Prof.Models[0].Task
	return workload.NewStream(task, c.NumInputs, c.streamSeed())
}

// Run executes the scheme over the configured stream and returns the
// record. An optional trace callback sees every (input, decision, outcome)
// triple — the hook behind Figure 9.
func Run(cfg Config, sched Scheduler, trace func(in workload.Input, d sim.Decision, out sim.Outcome)) *metrics.Record {
	return RunEnv(cfg, cfg.NewEnv(), sched, trace)
}

// RunEnv is Run with a caller-supplied environment, used by scripted-
// contention experiments (Fig. 9) that need a custom contention source.
func RunEnv(cfg Config, env *sim.Env, sched Scheduler, trace func(in workload.Input, d sim.Decision, out sim.Outcome)) *metrics.Record {
	loop := NewLoop(env, cfg.NewStream(), cfg.Spec, cfg.Trace)
	rec := metrics.NewRecord(sched.Name())
	for {
		in, goal, changed, ok := loop.Next()
		if !ok {
			return rec
		}
		if ss, isSetter := sched.(SpecSetter); changed && isSetter {
			ss.SetSpec(loop.Spec)
		}
		d := sched.Decide(env, in, goal)
		out := loop.Run(in, d, goal)
		sched.Observe(in, d, out)
		rec.Add(loop.Sample(d, out, out.Latency, goal))
		if trace != nil {
			trace(in, d, out)
		}
	}
}

// Loop is one stream's per-input loop (§3.2) less the decision itself:
// spec churn, goal adjustment, execution on the simulated testbed, the
// latency booking, and the evaluation sample. The runner, cmd/alertload
// and the chaos harness all step it, each supplying its own decider — a
// Scheduler here, an alert.Server or a cluster behind the network there.
type Loop struct {
	// Spec is the requirement in force for the current input: the base
	// spec with the churn trace's overrides applied. Goal adjustment, the
	// simulator's input period and Sample's violation accounting all
	// follow it.
	Spec core.Spec

	env     *sim.Env
	inputs  workload.Stream
	tracker *workload.DeadlineTracker
	base    core.Spec
	churn   *scenario.Trace
}

// NewLoop builds the loop for one stream. churn may be nil: the base spec
// then holds for every input.
func NewLoop(env *sim.Env, inputs workload.Stream, base core.Spec, churn *scenario.Trace) *Loop {
	return &Loop{Spec: base, env: env, inputs: inputs, base: base, churn: churn,
		tracker: workload.NewDeadlineTracker(inputs.Task(), base.Deadline, 0)}
}

// Next advances to the next input and returns it with its adjusted latency
// goal. changed reports that spec churn moved Spec for this input (the
// tracker already follows it); ok is false once the stream is exhausted.
func (l *Loop) Next() (in workload.Input, goal float64, changed, ok bool) {
	if in, ok = l.inputs.Next(); !ok {
		return in, 0, false, false
	}
	if l.churn != nil {
		if next := l.churn.SpecFor(in.ID, l.base); next != l.Spec {
			l.Spec, changed = next, true
			l.tracker.SetPerInput(next.Deadline)
		}
	}
	return in, l.tracker.GoalFor(in), changed, true
}

// Run executes decision d on input in and books the measured latency
// against the stream's deadline budget.
func (l *Loop) Run(in workload.Input, d sim.Decision, goal float64) sim.Outcome {
	out := l.env.Step(d, in, goal, l.Spec.Deadline)
	l.tracker.Observe(in, out.Latency)
	return out
}

// Sample is the evaluation record of one executed input: latency is what
// the caller accounts against goal — the execution latency against the
// adjusted goal for the runner, the response time (queueing included)
// against the requested deadline for a served stream — and the objective
// in force decides which of accuracy or energy can be violated.
func (l *Loop) Sample(d sim.Decision, out sim.Outcome, latency, goal float64) metrics.Sample {
	s := metrics.Sample{
		Latency:         latency,
		Goal:            goal,
		Energy:          out.Energy,
		Quality:         out.Quality,
		TrueXi:          out.TrueXi,
		Model:           d.Model,
		Cap:             out.CapApplied,
		LatencyViolated: latency > goal,
	}
	switch l.Spec.Objective {
	case core.MinimizeEnergy:
		s.AccuracyViolated = out.Quality < l.Spec.AccuracyGoal
	case core.MaximizeAccuracy:
		s.EnergyViolated = l.Spec.EnergyBudget > 0 && out.Energy > l.Spec.EnergyBudget
	}
	return s
}
