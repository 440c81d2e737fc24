package baselines

import (
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/kalman"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// NoCoord combines application-level and system-level adaptation *without*
// coordination (§5.1): the anytime DNN plans its early-stop against the
// default-power profile while, independently, a [63]-style power controller
// moves the cap underneath it. Each layer keeps its own model of the world
// and neither sees the other's actuation, so "the two levels can work at
// cross purposes; e.g., the application switches to a faster DNN to save
// energy while the system makes more power available" — Table 4 shows it
// losing to both single-layer schemes.
type NoCoord struct {
	prof  *dnn.ProfileTable
	spec  core.Spec
	model int

	// System layer state: Kalman latency tracking against the *current*
	// cap's profile, like SysOnly.
	sysXiP   kalman.XiParams
	sysXi    kalman.XiState
	sysIdleP kalman.IdleParams
	sysIdle  kalman.IdleState

	// Application layer state: an EWMA slowdown estimate computed against
	// the default-power profile — the app has no idea the cap moved, so
	// cap-induced slowdown is misattributed to the environment with a lag.
	appSlowdown float64
}

// NewNoCoord builds the uncoordinated scheme over an anytime candidate set.
func NewNoCoord(prof *dnn.ProfileTable, spec core.Spec) *NoCoord {
	idx := -1
	for i, m := range prof.Models {
		if m.IsAnytime() {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = prof.ModelIndex(dnn.MostAccurate(prof.Models).Name)
	}
	n := &NoCoord{
		prof:        prof,
		spec:        spec,
		model:       idx,
		sysXiP:      kalman.DefaultXiParams(),
		sysIdleP:    kalman.DefaultIdleParams(),
		appSlowdown: 1,
	}
	n.sysXi, n.sysIdle = kalman.MakeXiState(&n.sysXiP), kalman.MakeIdleState(&n.sysIdleP)
	return n
}

// Name implements runner.Scheduler.
func (n *NoCoord) Name() string { return "No-coord" }

// SetSpec implements runner.SpecSetter (scenario spec churn). Both
// uncoordinated layers see the new requirement, as they would via the same
// user-facing knob, but still not each other.
func (n *NoCoord) SetSpec(spec core.Spec) { n.spec = spec }

// Decide implements runner.Scheduler.
func (n *NoCoord) Decide(_ *sim.Env, _ workload.Input, goal float64) sim.Decision {
	m := n.prof.Models[n.model]

	// System layer: cheapest cap whose predicted full-ladder latency meets
	// the goal. It assumes the application will run the network to
	// completion — it has no channel to learn otherwise.
	mu := n.sysXi.Mu
	phi := n.sysIdle.Phi
	capIdx, capSet := 0, false
	var bestEnergy float64
	for j := 0; j < n.prof.NumCaps(); j++ {
		power := n.prof.PowerAt(n.model, j)
		lat := mu * n.prof.At(n.model, j)
		if lat > goal {
			continue
		}
		energy := power*lat + phi*power*(goal-lat)
		if n.spec.Objective == core.MaximizeAccuracy &&
			n.spec.EnergyBudget > 0 && energy > n.spec.EnergyBudget {
			continue
		}
		if !capSet || energy < bestEnergy {
			capIdx, bestEnergy, capSet = j, energy, true
		}
	}
	if !capSet {
		capIdx = n.prof.NumCaps() - 1
	}

	d := sim.Decision{Model: n.model, Cap: capIdx}
	if !m.IsAnytime() {
		return d
	}

	// Application layer: plan the stop stage against the DEFAULT power
	// profile — the defining blind spot. If the system just lowered the
	// cap, real latency exceeds this plan and stages get cut; if the cap
	// went up, the app stops earlier than it needed to.
	defaultCap := n.prof.CapIndex(n.prof.Platform.DefaultCap)
	tFullDefault := n.prof.At(n.model, defaultCap)
	stop := goal
	for k := len(m.Stages) - 1; k >= 0; k-- {
		planned := n.appSlowdown * tFullDefault * m.Stages[k].LatencyFrac
		if planned <= goal {
			stop = planned
			break
		}
	}
	d.PlannedStop = stop
	return d
}

// Observe implements runner.Scheduler. Each layer updates its own model
// from the same measurement, attributing it differently.
func (n *NoCoord) Observe(_ workload.Input, d sim.Decision, out sim.Outcome) {
	n.sysXi.Observe(&n.sysXiP, out.ObservedXi)
	if out.CapApplied > 0 {
		n.sysIdle.Observe(&n.sysIdleP, out.IdlePower/out.CapApplied)
	}
	// The app compares measured latency against the default-cap profile of
	// the portion it ran, so the cap's slowdown contaminates its estimate.
	defaultCap := n.prof.CapIndex(n.prof.Platform.DefaultCap)
	m := n.prof.Models[n.model]
	frac := 1.0
	if m.IsAnytime() && out.Stage >= 0 {
		frac = m.Stages[out.Stage].LatencyFrac
	}
	nominal := n.prof.At(n.model, defaultCap) * frac
	if nominal > 0 && out.Latency > 0 {
		obs := out.Latency / nominal
		const beta = 0.3
		n.appSlowdown = (1-beta)*n.appSlowdown + beta*obs
	}
}

var _ runner.Scheduler = (*NoCoord)(nil)
