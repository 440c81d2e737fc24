// Package core implements the ALERT runtime controller — the paper's
// primary contribution (§3). After every input it folds the measured
// slowdown into an adaptive Kalman filter over the global slowdown factor
// ξ (Eq. 5), then scores every DNN × power-cap × anytime-stop candidate by
// its probability of meeting the deadline (Eq. 6), its expected quality
// (Eq. 7 for traditional models, Eq. 13 for anytime ladders), and its
// predicted energy (Eq. 9, or the Prth-quantile variant Eq. 12), and picks
// the candidate that optimizes the user's objective subject to the
// remaining constraints (Eq. 1/2, or 10/11 when a probability threshold is
// set).
//
// The controller is split into two layers:
//
//   - Engine — the immutable, shareable half: the enumerated candidate
//     space, its SoA fast-path view, the resolved options and overhead
//     model. Built once per (ProfileTable, Options), safe for concurrent
//     use, shared by every stream on a platform.
//   - State — the lightweight mutable per-stream half: the ξ and
//     idle-power Kalman filters, the filter epoch, and the decision count.
//     72 pointer-free bytes per stream, one goroutine at a time, and
//     byte for byte the body of the stream's snapshot.
//
// Engine.Decide and Engine.Observe are the one decide/observe
// implementation; they take the stream's State and, for Decide, a scan
// workspace. The paper's one-stream deployment (§3.6) is a Session — one
// State bound to its Engine and workspace (alert.Scheduler); the serving
// layer (internal/serve) shares one Engine and one workspace per shard and
// holds a bare State per stream.
package core

import (
	"fmt"

	"github.com/alert-project/alert/internal/kalman"
)

// Objective selects which dimension is optimized while the other two are
// constrained (§3.1). Minimizing latency is omitted, as in the paper.
type Objective int

const (
	// MaximizeAccuracy solves Eq. 1 (Eq. 10 with a threshold): best quality
	// under an energy budget and a deadline.
	MaximizeAccuracy Objective = iota
	// MinimizeEnergy solves Eq. 2 (Eq. 11): least energy under an accuracy
	// goal and a deadline.
	MinimizeEnergy
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaximizeAccuracy:
		return "MaximizeAccuracy"
	case MinimizeEnergy:
		return "MinimizeEnergy"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Spec is the user requirement for one input: the (possibly goal-adjusted)
// deadline plus the two remaining constraint dimensions.
type Spec struct {
	Objective Objective
	// Deadline is T_goal in seconds.
	Deadline float64
	// EnergyBudget is E_goal in joules per input window (MaximizeAccuracy).
	EnergyBudget float64
	// AccuracyGoal is Q_goal in [0,1] (MinimizeEnergy).
	AccuracyGoal float64
	// Prth, if positive, is the user's probabilistic threshold: candidates
	// whose deadline probability falls below it are rejected (Eq. 10/11)
	// and energy is estimated at the Prth-quantile latency (Eq. 12).
	Prth float64
}

// Options tune the controller. The zero value is completed by
// DefaultOptions.
type Options struct {
	// Xi parameterizes the global-slowdown Kalman filter (Eq. 5).
	Xi kalman.XiParams
	// Idle parameterizes the idle-power filter (Eq. 8).
	Idle kalman.IdleParams
	// UseVariance enables the probabilistic design (§3.3 Idea 2). Setting
	// it false yields ALERT*, the mean-only ablation of Figure 10.
	UseVariance bool
	// StopQuantile is the ξ quantile used to plan anytime early stops: the
	// stop is placed where the chosen stage completes with this
	// probability. Defaults to 0.9; a positive Spec.Prth overrides it.
	StopQuantile float64
	// Confidence is the default chance-constraint level for the deadline
	// and accuracy-goal constraints: a traditional candidate must meet the
	// deadline — and, in the minimize-energy task, reach the accuracy
	// goal — with at least this probability. (Anytime candidates are
	// deadline-safe by construction: the runtime cuts them at the goal.)
	// Defaults to 0.98; a positive Spec.Prth overrides it. The ALERT*
	// ablation, having no variance estimate, degenerates to mean-latency
	// feasibility here.
	Confidence float64
	// EnergyConfidence is the latency quantile used in the energy
	// prediction (the Eq. 12 machinery) when the user sets no explicit
	// Prth. Estimating energy at the mean latency admits configurations
	// that exceed the budget on every above-average input — roughly half
	// of them — so the default is a 0.9-quantile estimate; Spec.Prth
	// overrides it.
	EnergyConfidence float64
	// OverheadFrac models the controller's own worst-case cost as a
	// fraction of the profiled mean input latency; it is charged to the
	// decision and pre-subtracted from the goal (§3.2 step 2, §4 measures
	// 0.6–1.7 %).
	OverheadFrac float64
	// ReferenceScorer makes Decide score every candidate with
	// the naive per-candidate estimator (estimate), no pruning — the
	// pre-optimization hot path retained as the differential-testing
	// oracle. Decisions and estimates are identical either way; that
	// identity is exactly what the differential tests pin. Only useful for
	// tests, benchmarks, and debugging.
	ReferenceScorer bool
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Xi:               kalman.DefaultXiParams(),
		Idle:             kalman.DefaultIdleParams(),
		UseVariance:      true,
		StopQuantile:     0.9,
		Confidence:       0.98,
		EnergyConfidence: 0.9,
		OverheadFrac:     0.012,
	}
}

// Candidate identifies one point of the joint configuration space: a model,
// a power cap, and — for anytime models — the stage after which the runtime
// plans to stop. RunToDeadline marks the candidate that lets the ladder run
// until the goal itself (maximal quality, maximal energy); quantile-stopped
// candidates trade tail quality for energy (§3.5).
type Candidate struct {
	Model, Cap, StopStage int
	RunToDeadline         bool
}

// Estimate is the controller's prediction for one candidate, exposed for
// tests, traces (Fig. 9), and the ablation study.
type Estimate struct {
	Candidate
	// LatMean is the predicted mean latency µ·t_prof (of the executed
	// portion, for early-stopped anytime candidates).
	LatMean float64
	// PrDeadline is Eq. 6: the probability the candidate's final output
	// lands inside the deadline.
	PrDeadline float64
	// Quality is the expected quality q̂ (Eq. 7/13).
	Quality float64
	// PrQuality is the probability that the *realized* per-input quality
	// reaches the spec's accuracy goal — the chance-constraint form of
	// Eq. 2's q_{i,j} ≥ Q_goal. Expected quality alone is a trap here:
	// when the goal falls between two anytime stages, a candidate can
	// satisfy the goal in expectation while landing below it on most
	// inputs. 1.0 when the spec has no accuracy goal.
	PrQuality float64
	// Energy is the predicted energy ê over the input window (Eq. 9/12).
	Energy float64
	// PlannedStop is the wall-clock budget handed to the executor for
	// anytime candidates (0 for traditional).
	PlannedStop float64
}
