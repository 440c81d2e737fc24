package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
)

// The optimized scan (fastpath.go) must be indistinguishable from the naive
// reference scorer: identical Estimates (compared with ==, i.e. bit-for-bit)
// and identical decision sequences under any interleaving of Observe, spec
// churn, and repeated Decides — although it scores in full only the
// candidates its pruning cannot rule out. These tests are the contract that
// lets every other layer trust the fast path blindly; the second half of
// the file aims them at the pruning's edges (exact ties, step-function
// CDFs, infinite quantiles, budgets on the boundary, nothing feasible).

// specGen draws a random but plausible spec: both objectives, anytime and
// traditional feasibility regimes, optional energy budgets and Prth.
func specGen(rng *mathx.Rand) Spec {
	s := Spec{Deadline: 0.01 + 0.49*rng.Float64()}
	if rng.Float64() < 0.5 {
		s.Objective = MinimizeEnergy
		s.AccuracyGoal = 0.80 + 0.19*rng.Float64()
	} else {
		s.Objective = MaximizeAccuracy
		if rng.Float64() < 0.7 {
			s.EnergyBudget = 40 * s.Deadline * rng.Float64()
		}
	}
	if rng.Float64() < 0.3 {
		s.Prth = 0.9 + 0.099*rng.Float64()
	}
	return s
}

// diffProfiles returns the candidate sets the differential tests sweep:
// mixed traditional+anytime, and a large all-traditional zoo.
func diffProfiles(t testing.TB) []*dnn.ProfileTable {
	t.Helper()
	mixed, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := dnn.Profile(platform.CPU2(), dnn.ImageNetZoo(1))
	if err != nil {
		t.Fatal(err)
	}
	return []*dnn.ProfileTable{mixed, zoo}
}

// TestEstimateFastMatchesReference fuzzes filter states and specs and
// requires estimateFast to reproduce the naive estimate bit-for-bit on
// every candidate, each spec also with no Prth, a NaN Prth and a Prth
// above 1.
func TestEstimateFastMatchesReference(t *testing.T) {
	for _, prof := range diffProfiles(t) {
		for _, variance := range []bool{true, false} {
			opts := DefaultOptions()
			opts.UseVariance = variance
			c := NewEngine(prof, opts).NewSession()
			rng := mathx.NewRand(42)
			for trial := 0; trial < 60; trial++ {
				// Random walk the filters between trials so mu/sigma sweep
				// calm and volatile regimes.
				for i := 0; i < 3; i++ {
					c.Observe(sim.Outcome{
						ObservedXi: 0.6 + 1.8*rng.Float64(),
						IdlePower:  10 * rng.Float64(),
						CapApplied: 30,
					})
				}
				spec := specGen(rng)
				for _, prth := range []float64{spec.Prth, 0, math.NaN(), 2} {
					spec.Prth = prth
					goal := c.eng.adjustedGoal(spec.Deadline)
					p := c.eng.scoreParamsFor(&c.st, spec)
					for i, cand := range c.eng.candidates {
						want := c.eng.estimate(&c.st, cand, goal, spec)
						var got Estimate
						c.eng.estimateFast(c.sc, &got, int32(i), goal, spec, &p, c.eng.space.cost(int32(i), goal, &p))
						if !sameEstimate(got, want) {
							t.Fatalf("prof %s candidate %+v spec %+v:\nfast %+v\nref  %+v",
								prof.Platform.Name, cand, spec, got, want)
						}
					}
				}
			}
		}
	}
}

// refDecide replays one Decide on a ReferenceScorer twin.
type pairedControllers struct {
	fast, ref *Session
}

func newPair(prof *dnn.ProfileTable, opts Options) pairedControllers {
	refOpts := opts
	refOpts.ReferenceScorer = true
	return pairedControllers{fast: NewEngine(prof, opts).NewSession(), ref: NewEngine(prof, refOpts).NewSession()}
}

func (p pairedControllers) observe(out sim.Outcome) {
	p.fast.Observe(out)
	p.ref.Observe(out)
}

// TestDecideMatchesReferenceUnderChurn drives paired controllers through a
// random interleaving of Observe, spec churn, and repeated Decides,
// requiring identical decisions and estimates at every step.
func TestDecideMatchesReferenceUnderChurn(t *testing.T) {
	for _, prof := range diffProfiles(t) {
		pair := newPair(prof, DefaultOptions())
		rng := mathx.NewRand(7)
		spec := specGen(rng)
		for step := 0; step < 400; step++ {
			switch {
			case rng.Float64() < 0.4:
				pair.observe(sim.Outcome{
					ObservedXi: 0.7 + rng.Float64(),
					IdlePower:  8 * rng.Float64(),
					CapApplied: prof.Caps[rng.Intn(prof.NumCaps())],
				})
			case rng.Float64() < 0.3:
				spec = specGen(rng) // mid-stream churn
			}
			dFast, eFast := pair.fast.Decide(spec)
			dRef, eRef := pair.ref.Decide(spec)
			if dFast != dRef || eFast != eRef {
				t.Fatalf("step %d spec %+v: fast (%+v, %+v) != ref (%+v, %+v)",
					step, spec, dFast, eFast, dRef, eRef)
			}
			// A repeated Decide without an Observe in between rescans and
			// must land on the identical decision.
			dAgain, eAgain := pair.fast.Decide(spec)
			if dAgain != dFast || eAgain != eFast {
				t.Fatalf("step %d: repeated decide (%+v, %+v) != first (%+v, %+v)",
					step, dAgain, eAgain, dFast, eFast)
			}
		}
	}
}

// TestEstimateAllMatchesFastScan pins EstimateAll (the exported oracle) to
// the fast per-candidate scorer over random states, so external consumers
// of EstimateAll see exactly what Decide scored.
func TestEstimateAllMatchesFastScan(t *testing.T) {
	prof := diffProfiles(t)[0]
	c := NewEngine(prof, DefaultOptions()).NewSession()
	rng := mathx.NewRand(5)
	for trial := 0; trial < 30; trial++ {
		c.Observe(sim.Outcome{ObservedXi: 0.9 + 0.5*rng.Float64(), IdlePower: 6, CapApplied: 30})
		spec := specGen(rng)
		goal := c.eng.adjustedGoal(spec.Deadline)
		p := c.eng.scoreParamsFor(&c.st, spec)
		for i, want := range c.EstimateAll(spec) {
			var got Estimate
			if c.eng.estimateFast(c.sc, &got, int32(i), goal, spec, &p, c.eng.space.cost(int32(i), goal, &p)); got != want {
				t.Fatalf("candidate %d: fast %+v != EstimateAll %+v", i, got, want)
			}
		}
	}
}

// TestGoalReachIsConstantTime pins goalStage's O(1) verdicts (through the
// precomputed reach) and the scan's indexed goal-reach skip (reachLvl
// below goalLevel) against the plain walk of the candidate's reachable
// outputs, for goals on, between and beyond every accuracy the profiles
// hold, plus the non-finite ones. A space with more distinct reach
// levels than the index holds must still skip only candidates that miss.
func TestGoalReachIsConstantTime(t *testing.T) {
	walk := func(space *candSpace, i int32, g float64) int {
		if g <= 0 || space.qFail[i] >= g {
			return goalNone
		}
		if space.stageAcc[i] == nil {
			if space.acc[i] >= g {
				return 0
			}
			return goalMissed
		}
		for si := 0; si <= int(space.stop[i]); si++ {
			if space.stageAcc[i][si] >= g {
				return si
			}
		}
		return goalMissed
	}
	for _, prof := range diffProfiles(t) {
		space := &NewEngine(prof, DefaultOptions()).space
		goals := []float64{math.NaN(), math.Inf(-1), -1, 0, 1, math.Inf(1)}
		for _, m := range prof.Models {
			accs := []float64{m.Accuracy, m.QFail}
			for _, st := range m.Stages {
				accs = append(accs, st.Accuracy)
			}
			for _, a := range accs {
				goals = append(goals, a, math.Nextafter(a, 0), math.Nextafter(a, 2))
			}
		}
		for i := int32(0); i < int32(len(space.stop)); i++ {
			for _, g := range goals {
				want := walk(space, i, g)
				if got := space.goalStage(i, g); got != want {
					t.Fatalf("candidate %d goal %v: goalStage %d, walk %d", i, g, got, want)
				}
				sel := selector{spec: Spec{AccuracyGoal: g}, minimizeEnergy: true}
				if got := int(space.reachLvl[i]) < sel.goalLevel(space); got != (want == goalMissed) {
					t.Fatalf("candidate %d goal %v: indexed skip %v, walk %d", i, g, got, want)
				}
				sel.minimizeEnergy = false
				if sel.goalLevel(space) != 0 {
					t.Fatalf("goal %v: MaximizeAccuracy skips by goal reach", g)
				}
			}
		}
	}

	// 300 traditional models of distinct accuracies, two of them NaN: 300
	// levels, so the index shares its top entry among the highest.
	var models []*dnn.Model
	for k := 0; k < 300; k++ {
		models = append(models, &dnn.Model{Name: fmt.Sprint("m", k), Task: dnn.ImageClassification,
			RefLatency: 0.01, Accuracy: 0.5 + float64(k)/1000, QFail: 0.001, UtilFactor: 1, MemGB: 1})
	}
	models[7].Accuracy, models[8].QFail, models[8].Accuracy = math.NaN(), math.NaN(), math.NaN()
	prof, err := dnn.Profile(platform.CPU1(), models)
	if err != nil {
		t.Fatal(err)
	}
	space := &NewEngine(prof, DefaultOptions()).space
	if len(space.levels) <= math.MaxUint8 {
		t.Fatalf("%d distinct reach levels: the shared top index is not exercised", len(space.levels))
	}
	exact, skipped := 0, 0
	for _, g := range []float64{0.6, 0.7545, 0.7549, 0.755, 0.756, 0.79, 0.799, 0.8, math.NaN(), 1} {
		sel := selector{spec: Spec{AccuracyGoal: g}, minimizeEnergy: true}
		need := sel.goalLevel(space)
		for i := int32(0); i < int32(len(space.stop)); i++ {
			skip := int(space.reachLvl[i]) < need
			misses := space.goalStage(i, g) == goalMissed
			if skip && !misses {
				t.Fatalf("goal %v candidate %d: skipped by index but reaches the goal", g, i)
			}
			if skip {
				skipped++
			}
			if space.reachLvl[i] < math.MaxUint8 && skip != misses {
				t.Fatalf("goal %v candidate %d: indexed skip %v, goal missed %v", g, i, skip, misses)
			}
			if misses && !skip {
				exact++
			}
		}
	}
	if skipped == 0 || exact == 0 {
		t.Fatalf("%d skipped by index, %d missed but kept: the shared top index is not exercised", skipped, exact)
	}
}

// TestDecideAllocFree asserts the steady-state allocation contract: the
// scan allocates nothing.
func TestDecideAllocFree(t *testing.T) {
	prof := diffProfiles(t)[0]
	c := NewEngine(prof, DefaultOptions()).NewSession()
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30}
	c.Observe(out)
	c.Decide(spec) // warm

	if n := testing.AllocsPerRun(200, func() {
		c.Observe(out)
		c.Decide(spec)
	}); n != 0 {
		t.Errorf("Decide allocates %.1f/op, want 0", n)
	}
}

// TestAdjustedGoalFallback pins the shared goal-adjustment helper,
// including the degenerate deadline ≤ overhead branch that used to be
// copy-pasted across every scan entry point and EstimateAll.
func TestAdjustedGoalFallback(t *testing.T) {
	c := NewEngine(diffProfiles(t)[0], DefaultOptions()).NewSession()
	if c.eng.overhead <= 0 {
		t.Fatal("overhead model missing")
	}
	big := 1.0
	if got, want := c.eng.adjustedGoal(big), big-c.eng.overhead; got != want {
		t.Errorf("adjustedGoal(%g) = %g, want %g", big, got, want)
	}
	tiny := c.eng.overhead * 0.5
	if got, want := c.eng.adjustedGoal(tiny), tiny*0.5; got != want {
		t.Errorf("adjustedGoal(%g) = %g, want %g", tiny, got, want)
	}
	if got := c.eng.adjustedGoal(0); got != 0 {
		t.Errorf("adjustedGoal(0) = %g, want 0", got)
	}
	if math.IsNaN(c.eng.adjustedGoal(c.eng.overhead)) {
		t.Error("adjustedGoal(overhead) is NaN")
	}
}

// ---- Adversarial coverage for the pruning ----
//
// The scan skips a candidate only when consider is certain to drop it. The
// tests below aim paired fast/reference controllers at every place that
// certainty could be off by one: exact ties, step-function CDFs, infinite
// and NaN quantiles, an energy budget sitting on a candidate's Energy,
// scans where nothing (or only the very last candidate) is feasible.

// sameFloat is == that also equates NaN with NaN: an Estimate scored from a
// NaN deadline carries NaN fields on both sides.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

func sameEstimate(a, b Estimate) bool {
	return a.Candidate == b.Candidate &&
		sameFloat(a.LatMean, b.LatMean) && sameFloat(a.PrDeadline, b.PrDeadline) &&
		sameFloat(a.Quality, b.Quality) && sameFloat(a.PrQuality, b.PrQuality) &&
		sameFloat(a.Energy, b.Energy) && sameFloat(a.PlannedStop, b.PlannedStop)
}

func sameDecision(a, b sim.Decision) bool {
	return a.Model == b.Model && a.Cap == b.Cap && a.Overhead == b.Overhead &&
		sameFloat(a.PlannedStop, b.PlannedStop)
}

// checkSpec requires the fast and reference sessions to agree on one spec
// through Decide, and returns the decision.
func checkSpec(t testing.TB, fast, ref *Session, spec Spec) (sim.Decision, Estimate) {
	t.Helper()
	dF, eF := fast.Decide(spec)
	dR, eR := ref.Decide(spec)
	if !sameDecision(dF, dR) || !sameEstimate(eF, eR) {
		t.Fatalf("spec %+v: fast (%+v, %+v) != ref (%+v, %+v)", spec, dF, eF, dR, eR)
	}
	return dF, eF
}

// walk moves both filters of a pair by the same random observations.
func (p pairedControllers) walk(rng *mathx.Rand, n int) {
	for i := 0; i < n; i++ {
		p.observe(sim.Outcome{
			ObservedXi: 0.6 + 1.8*rng.Float64(),
			IdlePower:  10 * rng.Float64(),
			CapApplied: 30,
		})
	}
}

// duplicatedProfile profiles every image candidate twice under two names,
// so each candidate has a twin later in enumeration order that ties with it
// exactly on Energy, Quality, and every probability.
func duplicatedProfile(t testing.TB) (prof *dnn.ProfileTable, originals int) {
	t.Helper()
	models := dnn.ImageCandidates()
	originals = len(models)
	for _, m := range models[:originals] {
		twin := *m
		twin.Name = m.Name + "-twin"
		twin.Stages = append([]dnn.Stage(nil), m.Stages...)
		models = append(models, &twin)
	}
	prof, err := dnn.Profile(platform.CPU1(), models)
	if err != nil {
		t.Fatal(err)
	}
	return prof, originals
}

// TestPruningKeepsFirstOfExactTies: with every model duplicated, each
// winner has an exact twin the scan meets later. consider replaces only on
// a strict improvement, so the original must win — under either objective,
// feasible or fallback.
func TestPruningKeepsFirstOfExactTies(t *testing.T) {
	prof, originals := duplicatedProfile(t)
	for _, variance := range []bool{true, false} {
		opts := DefaultOptions()
		opts.UseVariance = variance
		pair := newPair(prof, opts)
		rng := mathx.NewRand(17)
		for trial := 0; trial < 150; trial++ {
			pair.walk(rng, 2)
			spec := specGen(rng)
			d, _ := checkSpec(t, pair.fast, pair.ref, spec)
			if d.Model >= originals {
				t.Fatalf("trial %d spec %+v: twin model %d beat its original", trial, spec, d.Model)
			}
		}
	}
}

// TestSelectorBreaksEnergyTiesByIndex: the nominal-energy order may visit
// two candidates of exactly equal Energy out of enumeration order, so under
// MinimizeEnergy consider and prune must let the earlier-enumerated one
// displace an equal-Energy best. Under MaximizeAccuracy, scanned in
// enumeration order, the first arrival keeps a tie as before.
func TestSelectorBreaksEnergyTiesByIndex(t *testing.T) {
	c := NewEngine(diffProfiles(t)[0], DefaultOptions()).NewSession()
	feed(c, 1.05, 5)
	space := &c.eng.space
	spec := benchSpec()
	_, e := c.Decide(spec)
	sel := c.eng.newSelector(spec)
	sel.consider(&e, 7)
	sel.consider(&e, 3)
	sel.consider(&e, 5)
	if !sel.bestSet || sel.bestIdx != 3 {
		t.Fatalf("MinimizeEnergy tie: best index %d (set %v), want 3", sel.bestIdx, sel.bestSet)
	}
	tie := candCost{energy: e.Energy}
	if sel.prune(space, 2, tie) || !sel.prune(space, 3, tie) || !sel.prune(space, 4, tie) {
		t.Fatal("prune on an Energy tie must keep exactly the earlier-enumerated candidates")
	}
	sel = c.eng.newSelector(Spec{Objective: MaximizeAccuracy, Deadline: spec.Deadline})
	sel.consider(&e, 7)
	sel.consider(&e, 3)
	if !sel.bestSet || sel.bestIdx != 7 {
		t.Fatalf("MaximizeAccuracy tie: best index %d (set %v), want 7", sel.bestIdx, sel.bestSet)
	}
}

// TestPruningWithStepCDFs runs the ALERT* ablation (σ = 0): every
// completion probability is exactly 0 or 1, so Quality collapses onto the
// raw accuracies and candidates tie with each other and with the pruning
// bound far more often than under a smooth CDF.
func TestPruningWithStepCDFs(t *testing.T) {
	for _, prof := range diffProfiles(t) {
		opts := DefaultOptions()
		opts.UseVariance = false
		pair := newPair(prof, opts)
		rng := mathx.NewRand(29)
		for trial := 0; trial < 200; trial++ {
			pair.walk(rng, 1)
			checkSpec(t, pair.fast, pair.ref, specGen(rng))
		}
	}
}

// TestPruningWithExtremeSpecs sweeps the spec values that turn the hoisted
// quantiles and the goal into ±Inf or NaN: Prth up to and past 1 (PhiInv
// saturates to +Inf, traditional energies become +Inf), non-finite and
// non-positive deadlines, NaN goals and budgets. The pruning tests are
// literal negations of consider's comparisons, so they must fall the same
// way on every one of them.
func TestPruningWithExtremeSpecs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	prths := []float64{0, 0.5, 0.9, 0.999, 1 - 1e-12, 1, 2, nan}
	deadlines := []float64{0.2, 0.03, 1e-9, 0, -1, inf, nan}
	for _, prof := range diffProfiles(t) {
		for _, variance := range []bool{true, false} {
			opts := DefaultOptions()
			opts.UseVariance = variance
			pair := newPair(prof, opts)
			rng := mathx.NewRand(41)
			for _, prth := range prths {
				for _, dl := range deadlines {
					pair.walk(rng, 1)
					for _, spec := range []Spec{
						{Objective: MinimizeEnergy, Deadline: dl, AccuracyGoal: 0.9, Prth: prth},
						{Objective: MinimizeEnergy, Deadline: dl, AccuracyGoal: nan, Prth: prth},
						{Objective: MinimizeEnergy, Deadline: dl, Prth: prth},
						{Objective: MaximizeAccuracy, Deadline: dl, EnergyBudget: 4, Prth: prth},
						{Objective: MaximizeAccuracy, Deadline: dl, EnergyBudget: inf, Prth: prth},
						{Objective: MaximizeAccuracy, Deadline: dl, EnergyBudget: nan, Prth: prth},
						{Objective: MaximizeAccuracy, Deadline: dl, Prth: prth},
					} {
						checkSpec(t, pair.fast, pair.ref, spec)
					}
				}
			}
		}
	}
}

// TestPruningAtExactEnergyBudget sets the budget to candidates' exact
// predicted Energy: consider rejects only Energy > budget, so the boundary
// candidate stays feasible and the scan must neither skip it nor stop
// skipping its costlier neighbours.
func TestPruningAtExactEnergyBudget(t *testing.T) {
	for _, prof := range diffProfiles(t) {
		pair := newPair(prof, DefaultOptions())
		rng := mathx.NewRand(53)
		for trial := 0; trial < 12; trial++ {
			pair.walk(rng, 2)
			spec := Spec{Objective: MaximizeAccuracy, Deadline: 0.05 + 0.4*rng.Float64()}
			// Energy does not depend on the budget, so these are the values
			// the budgeted scan will compare against.
			for _, est := range pair.ref.EstimateAll(spec) {
				spec.EnergyBudget = est.Energy
				checkSpec(t, pair.fast, pair.ref, spec)
			}
		}
	}
}

// feasibleSet lists the candidates consider would accept on their own.
func feasibleSet(c *Session, spec Spec) []int {
	var out []int
	for i, est := range c.EstimateAll(spec) {
		sel := c.eng.newSelector(spec)
		sel.consider(&est, int32(i))
		if sel.bestSet {
			out = append(out, i)
		}
	}
	return out
}

// TestPruningWhenNothingOrOnlyTheLastIsFeasible covers the two scans where
// no best is held until the end: no feasible candidate at all (the fallback
// pass picks the answer, the scan books it as one, and no candidate is
// scored more than once per pass), and a best that only appears at the
// very last candidate (the candidates that miss the accuracy goal are
// skipped without a CDF even then, and once one candidate is scored the
// chance-constraint line skips every one that cannot meet the deadline, so
// only the first and the winner are scored).
func TestPruningWhenNothingOrOnlyTheLastIsFeasible(t *testing.T) {
	for _, prof := range diffProfiles(t) {
		pair := newPair(prof, DefaultOptions())
		rng := mathx.NewRand(61)
		for trial := 0; trial < 20; trial++ {
			pair.walk(rng, 2)
			for _, spec := range []Spec{
				{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9999},
				{Objective: MaximizeAccuracy, Deadline: 0.2, EnergyBudget: 1e-9},
				{Objective: MinimizeEnergy, Deadline: 1e-6, AccuracyGoal: 0.9, Prth: 0.99},
			} {
				if f := feasibleSet(pair.ref, spec); len(f) != 0 {
					t.Fatalf("spec %+v: expected nothing feasible, got %v", spec, f)
				}
				pair.fast.sc.TakeScanCounts()
				checkSpec(t, pair.fast, pair.ref, spec)
				scored, fallbacks := pair.fast.sc.TakeScanCounts()
				if fallbacks != 1 || scored > 2*len(pair.fast.eng.candidates) {
					t.Fatalf("spec %+v: %d fallbacks booked (want 1), %d of %d candidates scored",
						spec, fallbacks, scored, len(pair.fast.eng.candidates))
				}
			}
		}
	}

	// Two traditional models: only the accurate one can meet the goal, and
	// only at the top cap does it meet the deadline — the last candidate.
	prof, err := dnn.Profile(platform.CPU1(), []*dnn.Model{
		{Name: "small", Task: dnn.ImageClassification, RefLatency: 0.02, Accuracy: 0.80, QFail: 0.005, UtilFactor: 1, MemGB: 1},
		{Name: "large", Task: dnn.ImageClassification, RefLatency: 0.10, Accuracy: 0.95, QFail: 0.005, UtilFactor: 1, MemGB: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pair := newPair(prof, DefaultOptions())
	last := len(pair.ref.eng.candidates) - 1
	spec := Spec{Objective: MinimizeEnergy, AccuracyGoal: 0.9}
	found := false
	for dl := 0.01; dl < 2; dl *= 1.01 {
		spec.Deadline = dl
		if f := feasibleSet(pair.ref, spec); len(f) == 1 && f[0] == last {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no deadline makes the last candidate the only feasible one")
	}
	// With no best held until the last candidate, the energy prune never
	// fires: the goal-reach rule skips the candidates that cannot reach the
	// goal, and the line skips every other one after the first scored, up
	// to the winner.
	reach := 0
	for i := range pair.fast.eng.candidates {
		if pair.fast.eng.space.goalStage(int32(i), spec.AccuracyGoal) != goalMissed {
			reach++
		}
	}
	if reach == last+1 || reach <= 2 {
		t.Fatalf("%d of %d candidates reach the goal: the skips are not exercised", reach, last+1)
	}
	pair.fast.sc.TakeScanCounts()
	pair.fast.Decide(spec)
	if scored, fallbacks := pair.fast.sc.TakeScanCounts(); scored != 2 || fallbacks != 0 {
		t.Fatalf("scored %d of the %d candidates that can reach the goal, with %d fallbacks; want 2 and 0",
			scored, reach, fallbacks)
	}
	_, est := checkSpec(t, pair.fast, pair.ref, spec)
	if est.Candidate != pair.ref.eng.candidates[last] {
		t.Fatalf("winner %+v, want the last candidate", est.Candidate)
	}
}

// TestScanWorkBound pins the work the pruning and the visit order leave: on
// the benchmark configuration (CPU1 × image candidates, benchSpec, a filter
// that has seen a few inputs) the scan scores at most 3 of the 210
// candidates and computes at most 4 CDF-free costs, and both counts — pure
// functions of (spec, filter state) — repeat exactly from run to run. The
// candidates that cannot reach the accuracy goal cost nothing even before
// the first feasible candidate appears, because the fallback is computed
// only when nothing is feasible; the nominal-energy order meets a feasible
// candidate right after them, and the energy floor ends the scan there.
//
// A new stream decides at the wide prior, where the first candidates the
// order meets are infeasible. Its first decide is pinned exactly too, on
// benchSpec and on the three specs bench/'s churn trace cycles through.
func TestScanWorkBound(t *testing.T) {
	prof := diffProfiles(t)[0]
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30}
	type work struct{ scored, costed int }
	var first []work
	for run := 0; run < 3; run++ {
		c := NewEngine(prof, DefaultOptions()).NewSession()
		if n := len(c.eng.candidates); n != 210 {
			t.Fatalf("candidate space is %d, want 210", n)
		}
		feed(c, 1.05, 5) // leave the wide prior, as any live stream has
		var counts []work
		for i := 0; i < 50; i++ {
			c.Observe(out)
			c.Decide(benchSpec())
			costed := c.sc.costed
			scored, fallbacks := c.sc.TakeScanCounts()
			if scored > 3 || scored < 1 || fallbacks != 0 {
				t.Fatalf("run %d decide %d: scored %d of 210 (want 1..3), %d fallbacks", run, i, scored, fallbacks)
			}
			if costed > 4 || costed < scored {
				t.Fatalf("run %d decide %d: %d cost evaluations (want %d..4)", run, i, costed, scored)
			}
			counts = append(counts, work{scored, costed})
		}
		if run == 0 {
			first = counts
			continue
		}
		for i := range counts {
			if counts[i] != first[i] {
				t.Fatalf("run %d decide %d did %+v, run 0 did %+v", run, i, counts[i], first[i])
			}
		}
	}

	type cold struct {
		spec Spec
		work
	}
	base := benchBaseSpec(t)
	colds := []cold{{benchSpec(), work{2, 48}}}
	for k, w := range []work{{2, 48}, {1, 1}, {2, 29}} {
		s := base
		s.Deadline *= []float64{1, 0.7, 1.5}[k]
		s.AccuracyGoal += []float64{0, -0.03, 0.015}[k]
		colds = append(colds, cold{s, w})
	}
	eng := NewEngine(prof, DefaultOptions())
	sc := eng.NewScratch()
	for run := 0; run < 3; run++ {
		for _, c := range colds {
			st := eng.NewState()
			eng.Decide(sc, &st, c.spec)
			costed := sc.costed
			scored, fallbacks := sc.TakeScanCounts()
			if got := (work{scored, costed}); got != c.work || fallbacks != 0 {
				t.Fatalf("run %d cold spec %+v: did %+v with %d fallbacks, want %+v and 0", run, c.spec, got, fallbacks, c.work)
			}
		}
	}

	// The reference scorer prunes nothing, and an infeasible spec is
	// counted as a fallback.
	refOpts := DefaultOptions()
	refOpts.ReferenceScorer = true
	ref := NewEngine(prof, refOpts).NewSession()
	ref.Decide(benchSpec())
	ref.Decide(Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9999})
	if scored, fallbacks := ref.sc.TakeScanCounts(); scored != 420 || fallbacks != 1 {
		t.Fatalf("reference scans: scored %d (want 420), fallbacks %d (want 1)", scored, fallbacks)
	}
}

// benchBaseSpec is bench/'s base requirement on CPU1 × image candidates:
// minimize energy under a deadline of 1.25× the slowest candidate's
// latency at the top cap, with accuracy goal 0.92.
func benchBaseSpec(t testing.TB) Spec {
	t.Helper()
	plat := platform.CPU1()
	slowest := 0.0
	for _, m := range dnn.ImageCandidates() {
		slowest = max(slowest, m.RefLatency/plat.Speed(plat.PMax))
	}
	return Spec{Objective: MinimizeEnergy, Deadline: 1.25 * slowest, AccuracyGoal: 0.92}
}

// TestEnergyFloorBoundsEveryCandidate checks energyFloor against cost
// directly: at every visit position r of the nominal-energy order the floor
// lies at or below the Energy of every candidate from r on — the fact the
// scan's early exit rests on — across idle ratios from 0 to 1, step CDFs
// (σ = 0), the wide prior, Prth near 1, and tiny and huge deadlines. Every
// input outside the floor's argument must select enumeration order with no
// early exit.
func TestEnergyFloorBoundsEveryCandidate(t *testing.T) {
	// bounds requires the floor at every position to lie at or below the
	// suffix minimum of cost's Energy in that visit order.
	bounds := func(what string, space *candSpace, goal float64, p scoreParams) {
		t.Helper()
		order, floor, early := space.visitOrder(goal, &p, true)
		if !early {
			t.Fatalf("%s: no early exit", what)
		}
		low := math.Inf(1)
		for r := len(order) - 1; r >= 0; r-- {
			low = min(low, space.cost(order[r], goal, &p).energy)
			if f := floor.at(r); !(f <= low) {
				t.Fatalf("%s position %d: floor %g above energy %g", what, r, f, low)
			}
		}
	}
	dup, _ := duplicatedProfile(t)
	for _, prof := range append(diffProfiles(t), dup) {
		for _, variance := range []bool{true, false} {
			// A stop quantile below the energy quantile makes κ = zStop.
			for _, stopQ := range []float64{0.9, 0.6} {
				opts := DefaultOptions()
				opts.UseVariance, opts.StopQuantile = variance, stopQ
				c := NewEngine(prof, opts).NewSession()
				for _, fed := range []int{0, 5} { // the prior, then a few inputs
					feed(c, 1.05, fed)
					for _, prth := range []float64{0, 0.9, 0.999, 1 - 1e-12} {
						for _, dl := range []float64{1e-9, 1e-3, 0.2, 5, 1e6} {
							spec := Spec{Objective: MinimizeEnergy, Deadline: dl, AccuracyGoal: 0.9, Prth: prth}
							goal := c.eng.adjustedGoal(dl)
							for _, phi := range []float64{0, 0x1p-1070, 0x1.7p-1069, 0x1p-50, 0.15, 0.5, 1} {
								p := c.eng.scoreParamsFor(&c.st, spec)
								p.phi = phi
								what := fmt.Sprintf("%s variance %v stop %g fed %d spec %+v φ %g",
									prof.Platform.Name, variance, stopQ, fed, spec, phi)
								bounds(what, &c.eng.space, goal, p)
								// Latencies in the subnormal range, where only the
								// floor's absolute term covers the rounding.
								p.mu, p.zEnergy, p.zStop = 0x1p-1060, 0x1p-1060, 0x1p-1060
								bounds(what+" κ 2⁻¹⁰⁶⁰", &c.eng.space, goal, p)
							}
						}
					}
				}
			}
		}
	}

	c := NewEngine(diffProfiles(t)[0], DefaultOptions()).NewSession()
	feed(c, 1.05, 5)
	space := &c.eng.space
	spec := benchSpec()
	goal := c.eng.adjustedGoal(spec.Deadline)
	nan, inf := math.NaN(), math.Inf(1)
	enumOrder := func(what string, goal float64, p scoreParams, minimize bool) {
		t.Helper()
		order, _, early := space.visitOrder(goal, &p, minimize)
		if early || &order[0] != &space.enum[0] {
			t.Fatalf("%s: early exit %v, enumeration order %v; want enumeration order only",
				what, early, &order[0] == &space.enum[0])
		}
	}
	base := c.eng.scoreParamsFor(&c.st, spec)
	if _, _, early := space.visitOrder(goal, &base, true); !early {
		t.Fatal("benchSpec: no early exit")
	}
	enumOrder("MaximizeAccuracy", goal, base, false)
	for _, phi := range []float64{1 + 0x1p-52, 1.5, -0x1p-1074, -0.1, nan, inf} {
		p := base
		p.phi = phi
		enumOrder(fmt.Sprintf("φ %g", phi), goal, p, true)
	}
	for _, v := range []float64{nan, inf, -inf} {
		for name, set := range map[string]func(*scoreParams){
			"µ":       func(p *scoreParams) { p.mu = v },
			"zEnergy": func(p *scoreParams) { p.zEnergy = v },
			"zStop":   func(p *scoreParams) { p.zStop = v },
		} {
			p := base
			set(&p)
			enumOrder(fmt.Sprintf("%s %g", name, v), goal, p, true)
		}
	}
	for _, g := range []float64{nan, inf, -inf, 0, -1, 1e305} {
		enumOrder(fmt.Sprintf("goal %g", g), g, base, true)
	}
	neg := base
	neg.mu, neg.zEnergy = -1, -0.5
	enumOrder("κ < 0", goal, neg, true)

	// A profile with a zero or non-finite power, or an infinite latency, has
	// no nominal-energy order at all: a zero power times an infinite
	// latency quantile is a NaN Energy.
	for _, bad := range []struct {
		name          string
		power, nomLat float64
	}{{"zero power", 0, 0.01}, {"NaN power", nan, 0.01}, {"infinite latency", 10, inf}} {
		prof := *diffProfiles(t)[0]
		prof.Power = append([][]float64(nil), prof.Power...)
		prof.Power[0] = append([]float64{bad.power}, prof.Power[0][1:]...)
		prof.Latency = append([][]float64(nil), prof.Latency...)
		prof.Latency[0] = append([]float64{bad.nomLat}, prof.Latency[0][1:]...)
		if NewEngine(&prof, DefaultOptions()).space.byNom != nil {
			t.Fatalf("%s: the space still has a nominal-energy order", bad.name)
		}
	}
}

// TestChanceLineRejectsOnlyInfeasible checks belowLine against the
// reference scorer: every candidate the chance-constraint line skips is one
// whose naive estimate consider rejects, for σ from the wide prior down to
// 10⁻¹² and 0, µ on both sides of 1 and NaN, Prth near 0.5 and near 1, and
// a non-default Confidence. The ratios just at and below x0 must compute
// below the level too, and the line must exist (and skip) at the prior.
func TestChanceLineRejectsOnlyInfeasible(t *testing.T) {
	prof := diffProfiles(t)[0]
	nan := math.NaN()
	skippedAtPrior := 0
	for _, conf := range []float64{0.98, 0.6} {
		opts := DefaultOptions()
		opts.Confidence = conf
		opts.Xi.R = 0 // σ is then exactly the state's
		eng := NewEngine(prof, opts)
		space := &eng.space
		for _, sigma := range []float64{math.Sqrt(0.1), 0.1, 1e-2, 1e-4, 1e-8, 1e-12, 0} {
			for _, mu := range []float64{1, 0.7, 1.6, nan} {
				st := eng.NewState()
				st.Xi.Mu, st.Xi.Sigma2, st.Xi.Q = mu, sigma*sigma, 0
				for _, prth := range []float64{0, 0.5 + 0x1p-30, 0.51, 0.9, 0.999, 1 - 1e-9} {
					for _, dl := range []float64{0.03, 0.08, 0.2, 0.5} {
						for _, spec := range []Spec{
							{Objective: MinimizeEnergy, Deadline: dl, AccuracyGoal: 0.9, Prth: prth},
							{Objective: MinimizeEnergy, Deadline: dl, AccuracyGoal: 0.93, Prth: prth},
							{Objective: MaximizeAccuracy, Deadline: dl, Prth: prth},
						} {
							goal := eng.adjustedGoal(dl)
							p := eng.scoreParamsFor(&st, spec)
							sel := eng.newSelector(spec)
							x0 := p.chanceLine(sel.conf)
							if !(p.sigma > 0 && finite(p.mu)) && !math.IsNaN(x0) {
								t.Fatalf("σ %g µ %g spec %+v: line %g, want none", p.sigma, p.mu, spec, x0)
							}
							if math.IsNaN(x0) {
								continue
							}
							for k, x := 0, x0; k < 64; k, x = k+1, math.Nextafter(x, math.Inf(-1)) {
								if pr := mathx.NormCDF(x, p.mu, p.sigma); !(pr < sel.conf) {
									t.Fatalf("σ %g µ %g conf %g: NormCDF(%v) = %v at the line", p.sigma, p.mu, sel.conf, x, pr)
								}
							}
							for i, cand := range eng.candidates {
								c := space.cost(int32(i), goal, &p)
								if !sel.belowLine(space, int32(i), &c, goal, x0) {
									continue
								}
								est := eng.estimate(&st, cand, goal, spec)
								probe := eng.newSelector(spec)
								probe.consider(&est, int32(i))
								if probe.bestSet {
									t.Fatalf("σ %g µ %g spec %+v candidate %+v: below the line %g but feasible: %+v",
										p.sigma, p.mu, spec, cand, x0, est)
								}
								if sigma == math.Sqrt(0.1) {
									skippedAtPrior++
								}
							}
						}
					}
				}
			}
		}
	}
	if skippedAtPrior == 0 {
		t.Fatal("the line skipped nothing at the prior")
	}
}

// fuzzEngines are the paired engines FuzzDecideMatchesReference draws
// sessions from, built once: engines are immutable and sessions are cheap.
var fuzzEngines struct {
	once      sync.Once
	fast, ref [2][2]*Engine // indexed by [duplicated profile][UseVariance]
}

// FuzzDecideMatchesReference lets the fuzzer pick the spec's raw float64s
// and the observations before it — any bit pattern, including NaN, ±Inf,
// negatives and denormals — and requires the pruned scan to agree with the
// reference scorer. The engine is the image candidates or their
// duplicatedProfile, whose exact-tie twins meet out of enumeration order in
// the nominal-energy visit order; the observed cap is fuzzed too, so the
// idle ratio φ crosses 1 and the visit order's guard is exercised. The
// number of observations (0, 1 or 2) is fuzzed as well, so the decide can
// run at the wide prior, where the chance-constraint line skips most.
func FuzzDecideMatchesReference(f *testing.F) {
	rng := mathx.NewRand(3)
	for i := 0; i < 24; i++ {
		s := specGen(rng)
		f.Add(s.Objective == MinimizeEnergy, s.Deadline, s.EnergyBudget, s.AccuracyGoal, s.Prth,
			0.6+1.8*rng.Float64(), 0.6+1.8*rng.Float64(), 10*rng.Float64(), 30.0, i%2 == 0, i%3 == 0, uint8(i%3))
	}
	f.Add(false, math.Inf(1), math.NaN(), 0.0, 1.0, 1.0, 1e6, 0.0, 30.0, false, false, uint8(2))
	f.Add(true, 0.2, 0.0, 0.9, 0.0, 1.05, 1.05, 6.0, 3.0, true, true, uint8(2))
	// Cold streams: the first decide at the prior, with and without Prth,
	// under both objectives.
	for _, prth := range []float64{0, 0.95} {
		f.Add(true, 0.2, 0.0, 0.93, prth, 1.0, 1.0, 6.0, 30.0, true, false, uint8(0))
		f.Add(true, 0.20625, 0.0, 0.92, prth, 1.0, 1.0, 6.0, 30.0, true, true, uint8(0))
		f.Add(false, 0.1, 4.0, 0.0, prth, 1.0, 1.0, 6.0, 30.0, true, false, uint8(0))
		f.Add(false, 0.2, 0.0, 0.0, prth, 1.0, 1.0, 6.0, 30.0, true, true, uint8(0))
	}

	f.Fuzz(func(t *testing.T, minimize bool, deadline, budget, accGoal, prth, xi1, xi2, idle, capApplied float64, variance, duplicated bool, observations uint8) {
		fuzzEngines.once.Do(func() {
			dup, _ := duplicatedProfile(t)
			for d, prof := range []*dnn.ProfileTable{diffProfiles(t)[0], dup} {
				for v, on := range []bool{false, true} {
					opts := DefaultOptions()
					opts.UseVariance = on
					fuzzEngines.fast[d][v] = NewEngine(prof, opts)
					opts.ReferenceScorer = true
					fuzzEngines.ref[d][v] = NewEngine(prof, opts)
				}
			}
		})
		d, v := 0, 0
		if duplicated {
			d = 1
		}
		if variance {
			v = 1
		}
		fast, ref := fuzzEngines.fast[d][v].NewSession(), fuzzEngines.ref[d][v].NewSession()
		for _, xi := range []float64{xi1, xi2}[:observations%3] {
			out := sim.Outcome{ObservedXi: xi, IdlePower: idle, CapApplied: capApplied}
			fast.Observe(out)
			ref.Observe(out)
		}
		spec := Spec{Deadline: deadline, EnergyBudget: budget, AccuracyGoal: accGoal, Prth: prth}
		if minimize {
			spec.Objective = MinimizeEnergy
		}
		checkSpec(t, fast, ref, spec)
	})
}
