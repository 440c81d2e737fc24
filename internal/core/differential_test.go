package core

import (
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
// every candidate.
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
				goal := c.adjustedGoal(spec.Deadline)
				p := c.scoreParamsFor(spec)
				for i, cand := range c.Candidates() {
					want := c.estimate(cand, goal, spec)
					got := c.estimateFast(int32(i), goal, spec, &p, c.eng.space.cost(int32(i), goal, &p))
					if got != want {
						t.Fatalf("prof %s candidate %+v spec %+v:\nfast %+v\nref  %+v",
							prof.Platform.Name, cand, spec, got, want)
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
		goal := c.adjustedGoal(spec.Deadline)
		p := c.scoreParamsFor(spec)
		for i, want := range c.EstimateAll(spec) {
			if got := c.estimateFast(int32(i), goal, spec, &p, c.eng.space.cost(int32(i), goal, &p)); got != want {
				t.Fatalf("candidate %d: fast %+v != EstimateAll %+v", i, got, want)
			}
		}
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
	if c.Overhead() <= 0 {
		t.Fatal("overhead model missing")
	}
	big := 1.0
	if got, want := c.adjustedGoal(big), big-c.Overhead(); got != want {
		t.Errorf("adjustedGoal(%g) = %g, want %g", big, got, want)
	}
	tiny := c.Overhead() * 0.5
	if got, want := c.adjustedGoal(tiny), tiny*0.5; got != want {
		t.Errorf("adjustedGoal(%g) = %g, want %g", tiny, got, want)
	}
	if got := c.adjustedGoal(0); got != 0 {
		t.Errorf("adjustedGoal(0) = %g, want 0", got)
	}
	if math.IsNaN(c.adjustedGoal(c.Overhead())) {
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
		sel := c.newSelector(spec)
		sel.consider(&est)
		if sel.bestSet {
			out = append(out, i)
		}
	}
	return out
}

// TestPruningWhenNothingOrOnlyTheLastIsFeasible covers the two scans where
// the fallback matters to the end: no feasible candidate at all (the
// fallback is the answer, and the scan books it as one), and a best that
// only appears at the very last candidate (every earlier one must have been
// scored in full for the fallback, none skipped).
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
				if _, fallbacks := pair.fast.sc.TakeScanCounts(); fallbacks != 1 {
					t.Fatalf("spec %+v: %d fallbacks booked, want 1", spec, fallbacks)
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
	last := len(pair.ref.Candidates()) - 1
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
	pair.fast.sc.TakeScanCounts()
	pair.fast.Decide(spec)
	if scored, fallbacks := pair.fast.sc.TakeScanCounts(); scored != last+1 || fallbacks != 0 {
		t.Fatalf("scored %d of %d candidates with %d fallbacks; nothing may be skipped before a best exists",
			scored, last+1, fallbacks)
	}
	_, est := checkSpec(t, pair.fast, pair.ref, spec)
	if est.Candidate != pair.ref.Candidates()[last] {
		t.Fatalf("winner %+v, want the last candidate", est.Candidate)
	}
}

// TestScanWorkBound pins the work the pruning leaves: on the benchmark
// configuration (CPU1 × image candidates, benchSpec, a filter that has seen
// a few inputs) the scan scores at most 40 of the 210 candidates in full,
// and the count — a pure function of (spec, filter state) — repeats exactly
// from run to run. Most of what is left are the candidates met before the
// first feasible one, which the fallback still needs.
func TestScanWorkBound(t *testing.T) {
	prof := diffProfiles(t)[0]
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30}
	var first []int
	for run := 0; run < 3; run++ {
		c := NewEngine(prof, DefaultOptions()).NewSession()
		if n := len(c.Candidates()); n != 210 {
			t.Fatalf("candidate space is %d, want 210", n)
		}
		feed(c, 1.05, 5) // leave the wide prior, as any live stream has
		var counts []int
		for i := 0; i < 50; i++ {
			c.Observe(out)
			c.Decide(benchSpec())
			scored, fallbacks := c.sc.TakeScanCounts()
			if scored > 40 || scored < 1 || fallbacks != 0 {
				t.Fatalf("run %d decide %d: scored %d of 210 (want 1..40), %d fallbacks", run, i, scored, fallbacks)
			}
			counts = append(counts, scored)
		}
		if run == 0 {
			first = counts
			continue
		}
		for i := range counts {
			if counts[i] != first[i] {
				t.Fatalf("run %d decide %d scored %d candidates, run 0 scored %d", run, i, counts[i], first[i])
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

// fuzzEngines are the paired engines FuzzDecideMatchesReference draws
// sessions from, built once: engines are immutable and sessions are cheap.
var fuzzEngines struct {
	once      sync.Once
	fast, ref [2]*Engine // indexed by UseVariance
}

// FuzzDecideMatchesReference lets the fuzzer pick the spec's raw float64s
// and the observations before it — any bit pattern, including NaN, ±Inf,
// negatives and denormals — and requires the pruned scan to agree with the
// reference scorer.
func FuzzDecideMatchesReference(f *testing.F) {
	rng := mathx.NewRand(3)
	for i := 0; i < 24; i++ {
		s := specGen(rng)
		f.Add(s.Objective == MinimizeEnergy, s.Deadline, s.EnergyBudget, s.AccuracyGoal, s.Prth,
			0.6+1.8*rng.Float64(), 0.6+1.8*rng.Float64(), 10*rng.Float64(), i%2 == 0)
	}
	f.Add(false, math.Inf(1), math.NaN(), 0.0, 1.0, 1.0, 1e6, 0.0, false)

	f.Fuzz(func(t *testing.T, minimize bool, deadline, budget, accGoal, prth, xi1, xi2, idle float64, variance bool) {
		fuzzEngines.once.Do(func() {
			prof := diffProfiles(t)[0]
			for v, on := range []bool{false, true} {
				opts := DefaultOptions()
				opts.UseVariance = on
				fuzzEngines.fast[v] = NewEngine(prof, opts)
				opts.ReferenceScorer = true
				fuzzEngines.ref[v] = NewEngine(prof, opts)
			}
		})
		v := 0
		if variance {
			v = 1
		}
		fast, ref := fuzzEngines.fast[v].NewSession(), fuzzEngines.ref[v].NewSession()
		for _, xi := range []float64{xi1, xi2} {
			out := sim.Outcome{ObservedXi: xi, IdlePower: idle, CapApplied: 30}
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
