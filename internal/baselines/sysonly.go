package baselines

import (
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/kalman"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// SysOnly is the application-oblivious baseline (§5.1): it pins the fastest
// traditional DNN ("to avoid latency violations") and adapts only the power
// cap, following the state-of-the-art soft-real-time energy minimizer of
// the paper's citation [63] — a feedback scheduler that predicts inference
// latency with a Kalman filter and then picks the cheapest cap whose
// predicted latency meets the deadline.
//
// Its structural weakness, which Table 4 quantifies, is that accuracy is
// whatever the pinned model delivers: it cannot trade accuracy for energy,
// so it violates accuracy constraints wholesale and wastes error headroom.
type SysOnly struct {
	prof  *dnn.ProfileTable
	spec  core.Spec
	model int

	// The two filters, each next to the constants it observes under.
	xiP   kalman.XiParams
	xi    kalman.XiState
	idleP kalman.IdleParams
	idle  kalman.IdleState
}

// NewSysOnly builds the baseline over a profile table. The pinned model is
// the fastest traditional candidate; if the set is all-anytime, the fastest
// model overall.
func NewSysOnly(prof *dnn.ProfileTable, spec core.Spec) *SysOnly {
	trad := dnn.Traditional(prof.Models)
	pin := 0
	if len(trad) > 0 {
		pin = prof.ModelIndex(dnn.Fastest(trad).Name)
	} else {
		pin = prof.ModelIndex(dnn.Fastest(prof.Models).Name)
	}
	s := &SysOnly{
		prof:  prof,
		spec:  spec,
		model: pin,
		xiP:   kalman.DefaultXiParams(),
		idleP: kalman.DefaultIdleParams(),
	}
	s.xi, s.idle = kalman.MakeXiState(&s.xiP), kalman.MakeIdleState(&s.idleP)
	return s
}

// Name implements runner.Scheduler.
func (s *SysOnly) Name() string { return "Sys-only" }

// SetSpec implements runner.SpecSetter (scenario spec churn). The pinned
// model stays pinned — this baseline only ever adapts the cap.
func (s *SysOnly) SetSpec(spec core.Spec) { s.spec = spec }

// Decide implements runner.Scheduler: cheapest cap whose predicted latency
// fits the goal (and, in the accuracy-maximizing task, whose predicted
// energy fits the budget); the top cap if nothing fits.
func (s *SysOnly) Decide(_ *sim.Env, _ workload.Input, goal float64) sim.Decision {
	mu := s.xi.Mu
	phi := s.idle.Phi

	best, bestSet := 0, false
	var bestEnergy float64
	for j := 0; j < s.prof.NumCaps(); j++ {
		power := s.prof.PowerAt(s.model, j)
		lat := mu * s.prof.At(s.model, j)
		if lat > goal {
			continue
		}
		idle := goal - lat
		energy := power*lat + phi*power*idle
		if s.spec.Objective == core.MaximizeAccuracy &&
			s.spec.EnergyBudget > 0 && energy > s.spec.EnergyBudget {
			continue
		}
		if !bestSet || energy < bestEnergy {
			best, bestEnergy, bestSet = j, energy, true
		}
	}
	if !bestSet {
		best = s.prof.NumCaps() - 1 // latency first: run as fast as possible
	}
	d := sim.Decision{Model: s.model, Cap: best}
	if s.prof.Models[s.model].IsAnytime() {
		d.PlannedStop = goal
	}
	return d
}

// Observe implements runner.Scheduler.
func (s *SysOnly) Observe(_ workload.Input, d sim.Decision, out sim.Outcome) {
	s.xi.Observe(&s.xiP, out.ObservedXi)
	if out.CapApplied > 0 {
		s.idle.Observe(&s.idleP, out.IdlePower/out.CapApplied)
	}
}

var _ runner.Scheduler = (*SysOnly)(nil)
