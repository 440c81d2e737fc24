package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
)

func newTestController(t *testing.T, opts Options) (*Session, *dnn.ProfileTable) {
	t.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(prof, opts).NewSession(), prof
}

// feed drives the filter to a steady slowdown level.
func feed(c *Session, xi float64, n int) {
	for i := 0; i < n; i++ {
		c.Observe(sim.Outcome{ObservedXi: xi, IdlePower: 6, CapApplied: 30})
	}
}

func TestDecideReturnsValidCandidate(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	f := func(xiRaw, dlRaw float64) bool {
		xi := math.Mod(math.Abs(xiRaw), 2) + 0.5
		deadline := math.Mod(math.Abs(dlRaw), 0.5) + 0.01
		feed(c, xi, 3)
		s := spec
		s.Deadline = deadline
		d, _ := c.Decide(s)
		return d.Model >= 0 && d.Model < prof.NumModels() &&
			d.Cap >= 0 && d.Cap < prof.NumCaps() &&
			d.PlannedStop >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLooseConstraintsPickCheapConfig(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	feed(c, 1.0, 50)
	// Miles of latency headroom and the weakest accuracy goal: the
	// cheapest adequate model at a low cap must win.
	d, est := c.Decide(Spec{Objective: MinimizeEnergy, Deadline: 1.0, AccuracyGoal: 0.88})
	if prof.Caps[d.Cap] > prof.Platform.PMin+10 {
		t.Errorf("expected a low cap, got %gW", prof.Caps[d.Cap])
	}
	if est.PrQuality < 0.9 {
		t.Errorf("chosen config misses the goal: PrQuality %g", est.PrQuality)
	}
	// And the chosen model should be a small one, not the XL.
	if prof.Models[d.Model].RefLatency > 0.1 {
		t.Errorf("expected a small model, got %s", prof.Models[d.Model].Name)
	}
}

func TestTightDeadlineExcludesSlowTraditionals(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	feed(c, 1.0, 50)
	// Deadline that only the fastest models can meet.
	deadline := prof.At(prof.ModelIndex("SparseResNet-S"), prof.NumCaps()-1) * 1.3
	d, _ := c.Decide(Spec{Objective: MinimizeEnergy, Deadline: deadline, AccuracyGoal: 0.90})
	m := prof.Models[d.Model]
	if !m.IsAnytime() && prof.At(d.Model, d.Cap) > deadline {
		t.Errorf("picked %s whose nominal latency exceeds the deadline", m.Name)
	}
}

func TestHighVariancePrefersAnytime(t *testing.T) {
	// §3.4's worked example: under high estimated variance the controller
	// must abandon long-latency traditional models for the anytime ladder.
	optsCalm := DefaultOptions()
	calm, prof := newTestController(t, optsCalm)
	feed(calm, 1.0, 100)
	volatile, _ := newTestController(t, DefaultOptions())
	// Oscillating observations keep the adaptive Q elevated.
	for i := 0; i < 60; i++ {
		xi := 1.0
		if i%2 == 0 {
			xi = 1.6
		}
		volatile.Observe(sim.Outcome{ObservedXi: xi, IdlePower: 6, CapApplied: 30})
	}
	if volatile.XiStd() <= calm.XiStd() {
		t.Fatal("volatile filter should carry more variance")
	}
	deadline := prof.At(prof.ModelIndex("SparseResNet-XL"), prof.NumCaps()-1) * 1.35
	spec := Spec{Objective: MaximizeAccuracy, Deadline: deadline, EnergyBudget: 45 * deadline}
	dCalm, _ := calm.Decide(spec)
	dVol, _ := volatile.Decide(spec)
	if prof.Models[dCalm.Model].IsAnytime() {
		t.Errorf("calm environment should afford the traditional model, got %s",
			prof.Models[dCalm.Model].Name)
	}
	if !prof.Models[dVol.Model].IsAnytime() {
		t.Errorf("volatile environment should pick the anytime model, got %s",
			prof.Models[dVol.Model].Name)
	}
}

func TestEnergyBudgetRespectedInEstimates(t *testing.T) {
	c, _ := newTestController(t, DefaultOptions())
	feed(c, 1.0, 50)
	budget := 30 * 0.2
	_, est := c.Decide(Spec{Objective: MaximizeAccuracy, Deadline: 0.2, EnergyBudget: budget})
	if est.Energy > budget {
		t.Errorf("chosen estimate exceeds budget: %g > %g", est.Energy, budget)
	}
}

func TestInfeasibleEnergyBudgetFallsBack(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	feed(c, 1.0, 50)
	// A budget no configuration can meet: the latency>accuracy>power
	// hierarchy keeps serving, sacrificing the power constraint.
	d, est := c.Decide(Spec{Objective: MaximizeAccuracy, Deadline: 0.2, EnergyBudget: 1e-6})
	if d.Model < 0 || d.Model >= prof.NumModels() {
		t.Fatal("fallback returned invalid model")
	}
	if est.Quality < 0.8 {
		t.Errorf("fallback should still chase accuracy, got %g", est.Quality)
	}
}

func TestSlowdownShiftsPowerUp(t *testing.T) {
	opts := DefaultOptions()
	fast, prof := newTestController(t, opts)
	slow, _ := newTestController(t, opts)
	feed(fast, 1.0, 80)
	feed(slow, 1.5, 80)
	deadline := prof.At(prof.ModelIndex("SparseResNet-M"), prof.NumCaps()-1) * 1.6
	spec := Spec{Objective: MinimizeEnergy, Deadline: deadline, AccuracyGoal: 0.93}
	dFast, _ := fast.Decide(spec)
	dSlow, _ := slow.Decide(spec)
	// Same requirement, slower world: the controller must spend more
	// power and/or drop to a faster model.
	if prof.Caps[dSlow.Cap] < prof.Caps[dFast.Cap] &&
		prof.Models[dSlow.Model].RefLatency >= prof.Models[dFast.Model].RefLatency {
		t.Errorf("no compensation for slowdown: fast (%s @ %gW) slow (%s @ %gW)",
			prof.Models[dFast.Model].Name, prof.Caps[dFast.Cap],
			prof.Models[dSlow.Model].Name, prof.Caps[dSlow.Cap])
	}
}

func TestPrthRejectsRiskyCandidates(t *testing.T) {
	c, _ := newTestController(t, DefaultOptions())
	feed(c, 1.2, 50)
	spec := Spec{Objective: MaximizeAccuracy, Deadline: 0.12, EnergyBudget: 9, Prth: 0.999}
	_, est := c.Decide(spec)
	if est.StopStage < 0 && est.PrDeadline < 0.999 {
		t.Errorf("Prth violated: picked traditional candidate with Pr %g", est.PrDeadline)
	}
}

func TestPrthTightensEnergyEstimate(t *testing.T) {
	c, _ := newTestController(t, DefaultOptions())
	feed(c, 1.2, 50)
	base := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	withTh := base
	withTh.Prth = 0.95
	// Eq. 12: the same candidate's energy estimate must not shrink when a
	// quantile latency replaces the mean.
	for _, e := range c.EstimateAll(base) {
		var match *Estimate
		for _, e2 := range c.EstimateAll(withTh) {
			if e2.Candidate == e.Candidate {
				t.Helper()
				m := e2
				match = &m
				break
			}
		}
		if match == nil {
			t.Fatal("candidate sets diverged")
		}
		if match.Energy < e.Energy-1e-9 {
			t.Fatalf("Prth energy estimate shrank for %+v: %g < %g",
				e.Candidate, match.Energy, e.Energy)
		}
	}
}

func TestExpectedQualityMonotoneInDeadline(t *testing.T) {
	c, _ := newTestController(t, DefaultOptions())
	feed(c, 1.1, 50)
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 0.4) + 0.01
		b := math.Mod(math.Abs(bRaw), 0.4) + 0.01
		lo, hi := math.Min(a, b), math.Max(a, b)
		sLo := Spec{Objective: MaximizeAccuracy, Deadline: lo}
		sHi := Spec{Objective: MaximizeAccuracy, Deadline: hi}
		estLo := c.EstimateAll(sLo)
		estHi := c.EstimateAll(sHi)
		for i := range estLo {
			// Only compare like-for-like candidates on quality; planned
			// stops move with the deadline, so compare PrDeadline for
			// traditional candidates only.
			if estLo[i].StopStage < 0 && estLo[i].Quality > estHi[i].Quality+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOverheadSubtractedFromGoal(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	if c.Overhead() <= 0 {
		t.Fatal("overhead model missing")
	}
	feed(c, 1.0, 50)
	// A deadline exactly at a model's nominal latency: with overhead
	// accounting the controller must not bet on that model at that cap.
	top := prof.NumCaps() - 1
	xs := prof.ModelIndex("SparseResNet-XS")
	deadline := prof.At(xs, top) // zero slack
	d, _ := c.Decide(Spec{Objective: MaximizeAccuracy, Deadline: deadline, EnergyBudget: 100})
	if !prof.Models[d.Model].IsAnytime() {
		est := c.EstimateAll(Spec{Objective: MaximizeAccuracy, Deadline: deadline, EnergyBudget: 100})
		_ = est
		if prof.At(d.Model, d.Cap)+c.Overhead() > deadline {
			t.Errorf("picked %s with no room for overhead", prof.Models[d.Model].Name)
		}
	}
}

func TestObserveUpdatesIdleRatio(t *testing.T) {
	c, _ := newTestController(t, DefaultOptions())
	for i := 0; i < 200; i++ {
		c.Observe(sim.Outcome{ObservedXi: 1, IdlePower: 15, CapApplied: 30})
	}
	if math.Abs(c.IdleRatio()-0.5) > 0.05 {
		t.Errorf("idle ratio %g, want ~0.5", c.IdleRatio())
	}
}

func TestALERTStarIgnoresVariance(t *testing.T) {
	opts := DefaultOptions()
	opts.UseVariance = false
	star, _ := newTestController(t, opts)
	feed(star, 1.0, 10)
	// With variance off, deadline probabilities are step functions.
	for _, e := range star.EstimateAll(Spec{Objective: MaximizeAccuracy, Deadline: 0.15, EnergyBudget: 100}) {
		if e.PrDeadline != 0 && e.PrDeadline != 1 {
			t.Fatalf("ALERT* PrDeadline = %g, want 0 or 1", e.PrDeadline)
		}
	}
}

func TestDecisionCountAndEstimateAllSize(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	c.Decide(spec)
	c.Decide(spec)
	if c.Decisions() != 2 {
		t.Errorf("decisions = %d", c.Decisions())
	}
	ests := c.EstimateAll(spec)
	want := 0
	for _, m := range prof.Models {
		if m.IsAnytime() {
			want += (len(m.Stages) + 1) * prof.NumCaps()
		} else {
			want += prof.NumCaps()
		}
	}
	if len(ests) != want {
		t.Errorf("EstimateAll size %d, want %d", len(ests), want)
	}
}

func TestAnytimeCandidatesDeadlineSafe(t *testing.T) {
	c, prof := newTestController(t, DefaultOptions())
	feed(c, 1.3, 30)
	for _, e := range c.EstimateAll(Spec{Objective: MaximizeAccuracy, Deadline: 0.1, EnergyBudget: 100}) {
		if e.StopStage >= 0 && e.PlannedStop > 0.1 {
			t.Fatalf("anytime candidate plans to run past the goal: %+v", e)
		}
	}
	_ = prof
}
