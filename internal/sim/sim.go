// Package sim is the execution substrate: a virtual-time simulator that
// plays the role the physical testbed plays in the paper. Given a chosen
// DNN, a power cap, the next input, and the ambient contention, it produces
// the measured latency, energy, and achieved quality that feed ALERT's
// feedback loop.
//
// The central modelling decision is that all stochastic effects compose
// into a single per-input multiplier on the profiled latency:
//
//	ξ_true(n) = contention slowdown × input size factor × platform noise
//
// which is exactly the global-slowdown-factor structure ALERT's estimator
// assumes (§3.3, Idea 1). The paper argues this assumption holds for DNNs
// because of code-path similarity and structural proportionality across a
// model family; the simulator makes it hold by construction, and the
// calibrated noise processes (platform jitter, contention bursts, input
// size) reproduce the latency distributions of Figures 4, 5 and 11.
// Because the multiplier is configuration-independent per input, the Oracle
// baseline can evaluate every configuration an input *would* have
// experienced — the same exhaustive-measurement construction §2.3 uses.
//
// The disturbance source is the contention.Source interface: the stock
// Markov/Scripted co-runner models, or a compiled internal/scenario trace
// (phase-switching contention, thermal/power-cap throttling, spec churn)
// replayed through the same interface. The one exception to per-input
// configuration independence is environment-enforced power throttling
// (Effect.CapLimitW): clamping the applied cap slows only the
// configurations above the limit, so for those the realized ξ includes the
// throttle penalty.
package sim

import (
	"math"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/workload"
)

// Env is one simulated deployment: a platform, a profiled candidate set,
// and a contention environment, advancing a virtual clock input by input.
type Env struct {
	Plat *platform.Platform
	Prof *dnn.ProfileTable
	Cont contention.Source

	rng *mathx.Rand
	now float64 // the virtual clock in seconds

	// pending is the draw for the upcoming input; it is drawn lazily and
	// cached so PeekXi and Step agree. It is held by value, so a step
	// allocates nothing.
	pending pendingDraw
}

// pendingDraw is one input's stochastic multipliers; valid is false until
// the next input is drawn.
type pendingDraw struct {
	valid     bool
	id        int
	eff       contention.Effect
	baseNoise float64
}

// NewEnv builds a simulation environment. The seed controls platform noise
// only; the contention source carries its own generator.
func NewEnv(prof *dnn.ProfileTable, cont contention.Source, seed int64) *Env {
	return &Env{Plat: prof.Platform, Prof: prof, Cont: cont, rng: mathx.NewRand(seed)}
}

// Decision is what a scheduler chose for one input.
type Decision struct {
	// Model and Cap index into the environment's profile table.
	Model, Cap int
	// PlannedStop, if positive, cuts an anytime model's execution at this
	// many seconds even if later stages are still pending — ALERT's
	// energy-driven early stop (§3.5). Ignored for traditional models.
	PlannedStop float64
	// Overhead is the scheduler's own decision+switching cost in seconds,
	// charged to the measured latency and energy (§4 reports 0.6–1.7 %).
	Overhead float64
}

// Outcome is everything the testbed measures for one input.
type Outcome struct {
	// TrueXi is the realized global slowdown multiplier for this input —
	// ground truth the Oracle sees and the estimator only infers.
	TrueXi float64
	// ObservedXi is the slowdown the runtime can compute from its own
	// measurement (latency of the executed work over its profiled time).
	// It equals TrueXi because work scales uniformly.
	ObservedXi float64
	// Latency is the measured wall-clock inference time, including
	// scheduler overhead.
	Latency float64
	// DeadlineMet reports Latency <= the goal passed to Step.
	DeadlineMet bool
	// Quality is the achieved task quality for this input (Eq. 3/13).
	Quality float64
	// Stage is the last anytime stage completed (-1 for none/traditional).
	Stage int
	// InferEnergy is joules consumed while inferring.
	InferEnergy float64
	// IdleEnergy is joules consumed waiting for the next input.
	IdleEnergy float64
	// Energy is the total over the input period window.
	Energy float64
	// IdlePower is the measured system draw during the idle window — what
	// feeds the Eq. 8 filter (platform idle + co-runner draw).
	IdlePower float64
	// CapApplied is the wattage that was enforced.
	CapApplied float64
	// ContentionActive mirrors the contention source's state for traces.
	ContentionActive bool
}

// draw fixes the stochastic multipliers for the next input if not yet done.
func (e *Env) draw(in workload.Input) (contention.Effect, float64) {
	if p := &e.pending; !p.valid || p.id != in.ID {
		// Contention first, then platform noise: the order both
		// generators have always been consumed in.
		p.eff = e.Cont.Next()
		p.baseNoise = e.rng.LogNormal(0, e.Plat.BaselineNoise)
		p.valid, p.id = true, in.ID
	}
	return e.pending.eff, e.pending.baseNoise
}

// PeekXi returns the true slowdown multiplier the upcoming input will
// experience. Only oracle schedulers call this; feedback schedulers never
// see it. Peeking does not advance the environment.
func (e *Env) PeekXi(in workload.Input) float64 {
	eff, noise := e.draw(in)
	return eff.Slowdown * in.SizeFactor * noise
}

// EvaluateAt computes the outcome the upcoming input would experience under
// a decision, without consuming the input or advancing the clock. This is
// the Oracle's primitive: the paper's oracles are built "by running 90
// inputs in all possible DNN and system configurations" (§2.3); here the
// exhaustive measurement is a pure function of the input's already-drawn
// slowdown. Feedback schedulers must never call it.
func (e *Env) EvaluateAt(d Decision, in workload.Input, goal, period float64) Outcome {
	eff, noise := e.draw(in)
	return e.outcome(d, in, goal, period, eff, noise)
}

// Step executes one input under the given decision. goal is the (possibly
// adjusted) latency goal; period is the input arrival period that bounds
// the energy accounting window (the paper's periodic-sensor setting uses
// period == goal). Step advances the virtual clock by max(period, latency).
func (e *Env) Step(d Decision, in workload.Input, goal, period float64) Outcome {
	eff, noise := e.draw(in)
	e.pending.valid = false
	out := e.outcome(d, in, goal, period, eff, noise)
	e.now += math.Max(period, out.Latency)
	return out
}

// outcome is the pure measurement model shared by Step and EvaluateAt.
func (e *Env) outcome(d Decision, in workload.Input, goal, period float64, eff contention.Effect, noise float64) Outcome {
	m := e.Prof.Models[d.Model]
	xi := eff.Slowdown * in.SizeFactor * noise

	// Environment-enforced power throttling (scenario traces): the applied
	// cap is clamped to the highest ladder rung within the current limit,
	// so the work executes at the clamped rung's speed and power. From the
	// runtime's viewpoint the extra slowdown is indistinguishable from any
	// other environmental disturbance, so it folds into ξ — for throttled
	// configurations TrueXi/ObservedXi carry the (configuration-dependent)
	// throttle penalty on top of the global multiplier.
	capIdx := d.Cap
	if eff.CapLimitW > 0 {
		for capIdx > 0 && e.Prof.Caps[capIdx] > eff.CapLimitW {
			capIdx--
		}
	}
	cap := e.Prof.Caps[capIdx]
	if capIdx != d.Cap {
		xi *= e.Prof.At(d.Model, capIdx) / e.Prof.At(d.Model, d.Cap)
	}

	tProf := e.Prof.At(d.Model, d.Cap)
	tFull := tProf * xi

	// Execution duration: traditional models run to completion (the late
	// result is worthless but the measurement is real); anytime models are
	// cut at their planned stop or the goal, whichever the runtime set.
	executed := tFull
	stage := -1
	quality := m.Accuracy
	if m.IsAnytime() {
		cut := goal
		if d.PlannedStop > 0 && d.PlannedStop < cut {
			cut = d.PlannedStop
		}
		if tFull > cut {
			executed = cut
		}
		frac := executed / tFull
		quality = m.QualityAt(frac)
		for si, s := range m.Stages {
			if frac >= s.LatencyFrac {
				stage = si
			}
		}
	}

	latency := executed + d.Overhead
	met := latency <= goal
	if !m.IsAnytime() && !met {
		quality = m.QFail
	}
	if m.IsAnytime() && stage < 0 {
		quality = m.QFail
	}

	inferPower := e.Plat.InferencePower(cap) * m.UtilFactor
	inferEnergy := inferPower * latency

	window := math.Max(period, latency)
	idleTime := window - latency
	idlePower := e.Plat.IdlePower + eff.ExtraPower
	idleEnergy := idlePower * idleTime

	return Outcome{
		TrueXi:           xi,
		ObservedXi:       xi,
		Latency:          latency,
		DeadlineMet:      met,
		Quality:          quality,
		Stage:            stage,
		InferEnergy:      inferEnergy,
		IdleEnergy:       idleEnergy,
		Energy:           inferEnergy + idleEnergy,
		IdlePower:        idlePower,
		CapApplied:       cap,
		ContentionActive: eff.Active,
	}
}
