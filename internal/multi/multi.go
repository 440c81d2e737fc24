// Package multi extends ALERT to concurrent inference jobs — the future
// work §3.6 sketches: "To support multiple concurrent inference jobs,
// future work needs to extend ALERT to coordinate across these concurrent
// jobs. We expect the main idea of ALERT, such as using a global slowdown
// factor to estimate system variation, to still apply."
//
// The design keeps exactly that structure. Each job retains its own ALERT
// session (its own ξ and idle-power filters, its own spec); the coordinator only arbitrates the shared *power envelope*. Jobs
// on one platform share one immutable core.Engine — the candidate space is
// identical for every job, so per-job state is just the session. Every
// scheduling round the coordinator asks each session, per cap rung, "what
// is the best you can do with exactly this much power"
// (core.Session.DecideAtCap) and then splits the envelope by greedy
// marginal utility: wattage flows, one rung at a time, to whichever job
// improves the most per watt. The greedy split is optimal when per-job
// utility is concave in power — which latency-derived quality curves are,
// up to the anytime ladder's discretization — and within one rung of
// optimal otherwise.
package multi

import (
	"fmt"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/sim"
)

// Job is one inference stream participating in coordination.
type Job struct {
	// Name identifies the job in allocations.
	Name string
	// Sess is the job's private ALERT session. Jobs on the same platform
	// should share one core.Engine and hold one session each; a session is
	// never shared between jobs (each job learns its own slowdown).
	Sess *core.Session
	// Spec is the job's current requirement.
	Spec core.Spec
	// Weight scales the job's utility in arbitration; 0 means 1.
	Weight float64
}

// Prof returns the profile table of the job's engine. All jobs of one
// coordinator must share a platform (they share its power envelope).
func (j *Job) Prof() *dnn.ProfileTable { return j.Sess.Engine().Profile() }

func (j *Job) weight() float64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}

// Allocation is the coordinator's output for one job in one round.
type Allocation struct {
	Job      *Job
	CapIdx   int
	CapW     float64
	Decision sim.Decision
	Estimate core.Estimate
	// Feasible reports whether the job's constraints are met at the
	// allocated power.
	Feasible bool
}

// Coordinator arbitrates one platform power envelope across jobs.
type Coordinator struct {
	jobs    []*Job
	budgetW float64
}

// NewCoordinator builds a coordinator over jobs sharing a total power
// budget in watts. All jobs must be profiled on the same platform.
func NewCoordinator(budgetW float64, jobs ...*Job) (*Coordinator, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("multi: no jobs")
	}
	plat := jobs[0].Prof().Platform
	var minSum float64
	for _, j := range jobs {
		if j.Prof().Platform.Name != plat.Name {
			return nil, fmt.Errorf("multi: job %s on %s, want %s",
				j.Name, j.Prof().Platform.Name, plat.Name)
		}
		minSum += j.Prof().Caps[0]
	}
	if budgetW < minSum {
		return nil, fmt.Errorf("multi: budget %gW below the %gW floor (every job needs its minimum cap)",
			budgetW, minSum)
	}
	return &Coordinator{jobs: jobs, budgetW: budgetW}, nil
}

// BudgetW returns the shared envelope.
func (c *Coordinator) BudgetW() float64 { return c.budgetW }

// SetBudgetW adjusts the envelope between rounds (requirements are dynamic,
// §1: "the power budget ... may switch among different settings"). Like
// NewCoordinator it rejects envelopes below the job set's floor — every job
// needs its minimum cap — leaving the current budget unchanged, so a live
// coordinator can never be driven into a state Allocate cannot satisfy.
func (c *Coordinator) SetBudgetW(w float64) error {
	if floor := MinBudgetW(c.jobs...); w < floor {
		return fmt.Errorf("multi: budget %gW below the %gW floor (every job needs its minimum cap)",
			w, floor)
	}
	c.budgetW = w
	return nil
}

// utility is the scalar the greedy split maximizes for one job at one cap.
// For accuracy-maximizing jobs it is the expected quality; for energy-
// minimizing jobs it is the negated predicted energy once constraints are
// met (more power only helps until feasibility, then it is waste).
func utility(j *Job, est core.Estimate, feasible bool) float64 {
	u := 0.0
	switch j.Spec.Objective {
	case core.MaximizeAccuracy:
		u = est.Quality
		if !feasible {
			u -= 1 // infeasible allocations rank below every feasible one
		}
	case core.MinimizeEnergy:
		if feasible {
			u = 1 - est.Energy/1000 // prefer feasible, then cheaper
		} else {
			u = est.PrQuality - 1
		}
	}
	return u * j.weight()
}

// Allocate runs one arbitration round and returns per-job allocations whose
// cap wattages sum to at most the budget.
func (c *Coordinator) Allocate() []Allocation {
	n := len(c.jobs)
	allocs := make([]Allocation, n)
	// Memoized per-(job, cap) evaluations: DecideAtCap is pure given the
	// controller state, and the greedy loop revisits rungs.
	type evalKey struct{ job, cap int }
	memo := make(map[evalKey]Allocation, n*4)
	eval := func(ji, cap int) Allocation {
		k := evalKey{ji, cap}
		if a, ok := memo[k]; ok {
			return a
		}
		j := c.jobs[ji]
		d, est, ok := j.Sess.DecideAtCap(j.Spec, cap)
		a := Allocation{
			Job:      j,
			CapIdx:   cap,
			CapW:     j.Prof().Caps[cap],
			Decision: d,
			Estimate: est,
			Feasible: ok,
		}
		memo[k] = a
		return a
	}

	// Start every job at its floor rung.
	used := 0.0
	for i := range c.jobs {
		allocs[i] = eval(i, 0)
		used += allocs[i].CapW
	}

	// Greedy marginal-utility ascent: repeatedly promote the job whose
	// jump to some higher rung buys the most utility per watt within the
	// remaining budget. Jumps may span several rungs because utility
	// curves plateau where the model choice does not change — a
	// single-rung greedy would stall on the plateau even though a higher
	// rung improves.
	for {
		bestJob, bestGain := -1, 0.0
		var bestNext Allocation
		for i, j := range c.jobs {
			curU := utility(j, allocs[i].Estimate, allocs[i].Feasible)
			for next := allocs[i].CapIdx + 1; next < j.Prof().NumCaps(); next++ {
				na := eval(i, next)
				dw := na.CapW - allocs[i].CapW
				if used+dw > c.budgetW {
					break
				}
				gain := (utility(j, na.Estimate, na.Feasible) - curU) / dw
				if gain > 0 && (bestJob < 0 || gain > bestGain) {
					bestJob, bestGain, bestNext = i, gain, na
				}
			}
		}
		if bestJob < 0 {
			// No promotion fits the budget or improves anything. Stop —
			// for energy-minimizing jobs extra watts are pure waste.
			break
		}
		used += bestNext.CapW - allocs[bestJob].CapW
		allocs[bestJob] = bestNext
	}
	return allocs
}

// TotalCapW sums the allocated cap wattages.
func TotalCapW(allocs []Allocation) float64 {
	var sum float64
	for _, a := range allocs {
		sum += a.CapW
	}
	return sum
}

// Observe forwards one job's measurement to its own controller; slowdown
// learned by one job does not leak into another's filter (they may run
// different tasks with different sensitivities), matching the per-job
// estimator structure §3.6 anticipates.
func (c *Coordinator) Observe(job *Job, out sim.Outcome) {
	job.Sess.Observe(out)
}

// Jobs returns the coordinated jobs.
func (c *Coordinator) Jobs() []*Job { return c.jobs }

// MinBudgetW returns the smallest admissible envelope for a job set on a
// platform: every job pinned at its lowest rung.
func MinBudgetW(jobs ...*Job) float64 {
	var sum float64
	for _, j := range jobs {
		sum += j.Prof().Caps[0]
	}
	return sum
}
