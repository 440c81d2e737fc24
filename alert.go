// Package alert is a Go implementation of ALERT (Accurate Learning for
// Energy and Timeliness, Wan et al., USENIX ATC 2020): a cross-stack
// runtime scheduler that, for every DNN inference request, jointly selects
// an inference model and a system power cap so that user-specified latency,
// accuracy, and energy requirements are met in dynamic environments.
//
// The core idea is a single global slowdown factor ξ — a random variable
// relating the current environment to the offline profiling environment —
// estimated after every input by an adaptive-noise Kalman filter. Its mean
// rescales the profiled latency of every candidate configuration at once;
// its variance measures environment volatility and makes the scheduler
// conservative exactly when the world is unpredictable.
//
// # Quick start
//
//	sched, err := alert.NewScheduler(alert.CPU1(), alert.ImageCandidates(), alert.Options{})
//	if err != nil { ... }
//	spec := alert.Spec{
//		Objective:    alert.MinimizeEnergy,
//		Deadline:     0.1,  // seconds
//		AccuracyGoal: 0.93,
//	}
//	for each input {
//		d, est := sched.Decide(spec)
//		// run models[d.Model] under caps[d.Cap]; for anytime models stop
//		// at d.PlannedStop seconds
//		sched.Observe(alert.Feedback{Decision: d, Latency: measured, IdlePowerW: idle})
//	}
//
// The package also ships the full simulation substrate used to reproduce
// the paper's evaluation (see Simulate and its examples), so the
// scheduler can be exercised end-to-end without GPUs, RAPL access, or
// trained networks.
package alert

import (
	"fmt"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/sim"
)

// Scheduler is the ALERT runtime for one inference task on one platform.
// It is not safe for concurrent use; serve one inference stream per
// Scheduler, which is the paper's deployment model (§3.6).
type Scheduler struct {
	prof *dnn.ProfileTable
	ctl  *core.Session
}

// NewScheduler profiles the candidate models on the platform and returns a
// ready scheduler. Options zero values select the paper's defaults.
func NewScheduler(p *Platform, models []*Model, opts Options) (*Scheduler, error) {
	prof, err := dnn.Profile(p, models)
	if err != nil {
		return nil, fmt.Errorf("alert: %w", err)
	}
	return &Scheduler{prof: prof, ctl: core.NewEngine(prof, coreOptions(opts)).NewSession()}, nil
}

// coreOptions translates the public Options into the controller's, applying
// the paper's defaults for zero values.
func coreOptions(opts Options) core.Options {
	o := core.DefaultOptions()
	o.UseVariance = !opts.DisableVariance
	o.ReferenceScorer = opts.ReferenceScorer
	return o
}

// Options configure a Scheduler. The zero value reproduces the paper's
// configuration.
type Options struct {
	// DisableVariance turns off the probabilistic design, yielding the
	// mean-only ALERT* variant the paper ablates in Figure 10. Only useful
	// for studies.
	DisableVariance bool
	// ReferenceScorer scores every candidate with the naive
	// pre-optimization estimator, no pruning. Decisions are identical to the
	// default fast path — the differential tests pin exactly that — so the
	// knob exists only for those tests, benchmarks, and debugging.
	ReferenceScorer bool
}

// Models returns the profiled candidate set in index order; Decision.Model
// indexes into it.
func (s *Scheduler) Models() []*Model { return s.prof.Models }

// PowerCaps returns the platform's cap ladder in watts; Decision.Cap
// indexes into it.
func (s *Scheduler) PowerCaps() []float64 { return s.prof.Caps }

// Decide selects the configuration for the next input (§3.2). The returned
// Estimate carries the scheduler's predictions for the chosen candidate.
func (s *Scheduler) Decide(spec Spec) (Decision, Estimate) {
	d, est := s.ctl.Decide(spec)
	return Decision{
		Model:       d.Model,
		Cap:         d.Cap,
		CapW:        s.prof.Caps[d.Cap],
		PlannedStop: d.PlannedStop,
		Overhead:    d.Overhead,
	}, est
}

// Decision is the scheduler's output for one input.
type Decision struct {
	// Model indexes Models().
	Model int
	// Cap indexes PowerCaps(); CapW is the same rung in watts.
	Cap  int
	CapW float64
	// PlannedStop, when positive, is the wall-clock second count after
	// which an anytime model should be stopped even if unfinished.
	PlannedStop float64
	// Overhead is the decision cost the scheduler charged itself.
	Overhead float64
}

// Feedback reports the measurement of the input just executed.
type Feedback struct {
	// Decision is the decision that produced this measurement.
	Decision Decision
	// Latency is the measured inference time in seconds.
	Latency float64
	// CompletedStage is the last anytime stage that finished (-1 or 0 for
	// traditional models; ignored for them).
	CompletedStage int
	// IdlePowerW is the measured system power between inputs; 0 means
	// unknown and leaves the idle estimate unchanged.
	IdlePowerW float64
}

// Observe feeds a measurement back into the estimators (§3.2 step 1). The
// error reports a feedback whose decision this scheduler cannot have made;
// nothing is folded in then.
func (s *Scheduler) Observe(fb Feedback) error {
	out, ok, err := feedbackOutcome(s.prof, fb)
	if ok {
		s.ctl.Observe(out)
	}
	return err
}

// checkFeedback reports a feedback whose decision names a model or cap
// outside the profiled set — feedback crosses the wire, so the indices are
// input, not invariants.
func checkFeedback(prof *dnn.ProfileTable, fb Feedback) error {
	if d := fb.Decision; d.Model < 0 || d.Model >= len(prof.Models) || d.Cap < 0 || d.Cap >= len(prof.Caps) {
		return fmt.Errorf("alert: feedback for model %d at cap %d: the candidate set has %d models and %d caps",
			d.Model, d.Cap, len(prof.Models), len(prof.Caps))
	}
	return nil
}

// feedbackOutcome converts a public Feedback into the controller's
// observation, scaling the profiled latency by the executed anytime
// fraction. It fails checkFeedback's way on out-of-range indices. ok is
// false, with no error, when the measurement carries no signal
// (non-positive latency or nominal time) and must be dropped.
func feedbackOutcome(prof *dnn.ProfileTable, fb Feedback) (out sim.Outcome, ok bool, err error) {
	if err := checkFeedback(prof, fb); err != nil {
		return out, false, err
	}
	if fb.Latency <= 0 {
		return out, false, nil
	}
	m := prof.Models[fb.Decision.Model]
	frac := 1.0
	if m.IsAnytime() && fb.CompletedStage >= 0 && fb.CompletedStage < len(m.Stages) {
		frac = m.Stages[fb.CompletedStage].LatencyFrac
	}
	nominal := prof.At(fb.Decision.Model, fb.Decision.Cap) * frac
	if nominal <= 0 {
		return out, false, nil
	}
	return outcomeForFeedback(fb, nominal), true, nil
}

// XiEstimate returns the current (mean, std) of the global slowdown factor.
func (s *Scheduler) XiEstimate() (mu, sigma float64) {
	return s.ctl.XiMean(), s.ctl.XiStd()
}

// IdlePowerRatio returns the current estimate of φ, the DNN-idle power as a
// fraction of the applied cap (Eq. 8).
func (s *Scheduler) IdlePowerRatio() float64 { return s.ctl.IdleRatio() }
