package core

// The decide hot path. Decide runs once per inference input on every
// serving layer (runner, experiment grid, serve.Pool shards, cmd/alertload),
// so the per-candidate scoring here is the single hottest loop in the
// repository. This file structures it around four ideas, none of which may
// change a single decision:
//
//  1. Structure-of-arrays candidate space (candSpace): everything about a
//     candidate that depends only on the profile table — t_prof, p_{i,j},
//     the anytime stage ladders as nominal latencies — is precomputed once
//     at NewEngine and laid out in flat parallel slices, so the scan loop
//     touches no *dnn.Model pointers and recomputes no products. The space
//     lives on the shared Engine: every stream scans the same arrays.
//  2. Loop-invariant hoisting (scoreParams): the standard-normal quantiles
//     behind the Eq. 12 energy estimate and the §3.5 anytime stop plan
//     depend only on (spec, filter state), not on the candidate, yet the
//     naive scorer paid one mathx.NormQuantile per candidate. They are now
//     computed once per Decide, from standard-normal quantiles the Engine
//     computed once (a spec's own Prth costs one PhiInv per Decide). The
//     anytime quality ladder likewise evaluates each stage's completion
//     probability once instead of twice (the naive ladder recomputes stage
//     si+1's CDF as it advances).
//  3. Bit-exactness over micro-tricks: the scan must stay byte-identical to
//     the naive estimate/EstimateAll oracle (the differential tests compare
//     Estimates with ==), so only transformations that reproduce the exact
//     same float64 operation sequence are admitted. In particular the
//     (x−µ)/σ standardization keeps the division: multiplying by a
//     precomputed 1/σ (or 1/t_prof) is faster but perturbs the last ulp,
//     which can flip a near-tie between candidates.
//  4. Bound-and-prune (scan): most candidates cannot be feasible or cannot
//     displace the running best, and a CDF-free test proves it for each of
//     them before any erf is evaluated. There are three such tests, each
//     a proof that one of the selector's own acceptance tests fails: a
//     byte compare of the candidate's reach level against the accuracy
//     goal's (goalLevel), its exact Energy against the running best
//     (prune), and its budget-per-work ratio against the chance-constraint
//     line, the ratio below which a completion probability computes below
//     the confidence level (chanceLine). Under MinimizeEnergy the scan
//     visits candidates in ascending nominal energy power·execNom and stops
//     at the first position whose energy floor (energyFloor, from the
//     least power at that position or later) lies strictly above the
//     running best, so most candidates are not even costed; ties on Energy
//     go to the lower enumeration index, which keeps the winner
//     order-independent. On the bench configuration a warm stream scores 1
//     candidate and costs 1; a new stream, at the wide prior, scores 2 and
//     costs 48. The infeasibility fallback is computed lazily, by a second
//     pass that runs only when nothing was feasible, so no candidate is
//     scored just to keep it current.

import (
	"cmp"
	"math"
	"slices"

	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
)

// candSpace is the structure-of-arrays view of the candidate slice, indexed
// by the same candidate index as Engine.candidates.
type candSpace struct {
	// stop/runToDL mirror the Candidate fields (stop is -1 for traditional
	// candidates).
	stop    []int32
	runToDL []bool
	// execNom is the nominal latency of the work the candidate plans to
	// run: the profile-table lookup t_prof[i][j] for a traditional
	// candidate, stage stop's LatencyFrac·t_prof for an anytime one. power
	// is p_{i,j} for the candidate's (model, cap).
	execNom []float64
	power   []float64
	// acc and qFail are the candidate model's final accuracy and
	// deadline-miss quality.
	acc   []float64
	qFail []float64
	// qualUB bounds the candidate's expected Quality from above under any
	// spec and filter state (see qualityBound).
	qualUB []float64
	// reach is the highest accuracy among the outputs the candidate can
	// produce — its model's final accuracy, or the best stage accuracy
	// through its stop stage — so whether an accuracy goal is reachable at
	// all is one comparison (goalStage). NaN accuracies are ignored.
	reach []float64
	// levels are the distinct reach levels max(reach, qFail) of the space,
	// ascending, and reachLvl[i] is candidate i's index into them, so the
	// scan's goal-reach skip is one byte compare per candidate (goalLevel).
	reachLvl []uint8
	levels   []float64
	// stageNom[i][si] is stage si's nominal latency LatencyFrac·t_prof at
	// the candidate's (model, cap); stageAcc[i][si] its accuracy. nil for
	// traditional candidates. Candidates sharing (model, cap) share the
	// backing slice.
	stageNom [][]float64
	stageAcc [][]float64
	// maxStages sizes the Scratch buffer for ladder CDFs.
	maxStages int

	// enum is the identity visit order, 0..n−1. byNom is the
	// MinimizeEnergy visit order: candidate indices in ascending nominal
	// energy power·execNom, ties in enumeration order, with nomAt[r] the
	// nominal energy of byNom[r] and pSuf[r] the least power at position r
	// or later; pMax is the greatest power.
	// byNom is nil unless every power is positive and finite and every
	// nominal latency and nominal energy finite and non-negative: only then
	// is every Energy cost computes from finite scoreParams free of NaN (a
	// zero power times an infinite latency is NaN), which energyFloor's
	// argument and the order-independent tie break need. A space without
	// the order is scanned in enumeration order.
	enum, byNom []int32
	nomAt, pSuf []float64
	pMax        float64
}

// newCandSpace precomputes the SoA layout from the enumerated candidates.
func newCandSpace(prof *dnn.ProfileTable, cands []Candidate) candSpace {
	n := len(cands)
	s := candSpace{
		stop:     make([]int32, n),
		runToDL:  make([]bool, n),
		execNom:  make([]float64, n),
		power:    make([]float64, n),
		acc:      make([]float64, n),
		qFail:    make([]float64, n),
		qualUB:   make([]float64, n),
		reach:    make([]float64, n),
		stageNom: make([][]float64, n),
		stageAcc: make([][]float64, n),
	}
	// Shared stage ladders per (model, cap): LatencyFrac·t_prof is the same
	// two-operand product the naive scorer computes, so sharing the
	// precomputed slice is bit-exact.
	type mc struct{ m, c int }
	noms := make(map[mc][]float64)
	accs := make(map[int][]float64)
	for i, cand := range cands {
		m := prof.Models[cand.Model]
		tp := prof.At(cand.Model, cand.Cap)
		s.stop[i] = int32(cand.StopStage)
		s.runToDL[i] = cand.RunToDeadline
		s.execNom[i] = tp
		s.power[i] = prof.PowerAt(cand.Model, cand.Cap)
		s.acc[i] = m.Accuracy
		s.qFail[i] = m.QFail
		s.qualUB[i] = qualityBound(m.QFail, m.Accuracy)
		s.reach[i] = m.Accuracy
		if !m.IsAnytime() {
			continue
		}
		key := mc{cand.Model, cand.Cap}
		nom, ok := noms[key]
		if !ok {
			nom = make([]float64, len(m.Stages))
			for si, st := range m.Stages {
				nom[si] = st.LatencyFrac * tp
			}
			noms[key] = nom
		}
		acc, ok := accs[cand.Model]
		if !ok {
			acc = make([]float64, len(m.Stages))
			for si, st := range m.Stages {
				acc[si] = st.Accuracy
			}
			accs[cand.Model] = acc
		}
		s.stageNom[i] = nom
		s.stageAcc[i] = acc
		s.execNom[i] = nom[cand.StopStage]
		s.qualUB[i] = qualityBound(m.QFail, acc[:cand.StopStage+1]...)
		s.reach[i] = math.Inf(-1)
		for _, a := range acc[:cand.StopStage+1] {
			if a > s.reach[i] {
				s.reach[i] = a
			}
		}
		if len(m.Stages) > s.maxStages {
			s.maxStages = len(m.Stages)
		}
	}
	s.enum = make([]int32, n)
	for i := range s.enum {
		s.enum[i] = int32(i)
	}
	s.reachLvl, s.levels = reachLevels(s.reach, s.qFail)
	s.byNom, s.nomAt, s.pSuf, s.pMax = nominalEnergyOrder(s.power, s.execNom)
	return s
}

// reachLevels indexes each candidate's reach level: the greater of reach
// and qFail, ignoring NaN (−Inf when both are NaN). A goal g > 0 is then
// reachable exactly when levels[reachLvl[i]] ≥ g, the test goalStage makes
// before it returns goalMissed. A space with more than 255 distinct levels shares index 255 among
// the highest; the scan never skips a candidate there (see goalLevel).
func reachLevels(reach, qFail []float64) (lvl []uint8, levels []float64) {
	at := make([]float64, len(reach))
	for i, r := range reach {
		if qFail[i] > r || r != r {
			r = qFail[i]
		}
		if r != r {
			r = math.Inf(-1)
		}
		at[i] = r
	}
	levels = slices.Clone(at)
	slices.Sort(levels)
	levels = slices.Compact(levels)
	lvl = make([]uint8, len(at))
	for i, r := range at {
		k, _ := slices.BinarySearch(levels, r)
		lvl[i] = uint8(min(k, math.MaxUint8))
	}
	return lvl, levels
}

// nominalEnergyOrder sorts the candidate indices by nominal energy
// power[i]·execNom[i], stably, and returns the sorted nominal energies, the
// suffix minima of power along that order and the greatest power; the
// order is nil when the space does not qualify (see candSpace.byNom).
func nominalEnergyOrder(power, execNom []float64) (byNom []int32, nomAt, pSuf []float64, pMax float64) {
	n := len(power)
	nom := make([]float64, n)
	for i := range nom {
		nom[i] = power[i] * execNom[i]
		if !(power[i] > 0 && finiteNonNeg(power[i]) && finiteNonNeg(execNom[i]) && finiteNonNeg(nom[i])) {
			return nil, nil, nil, 0
		}
		pMax = max(pMax, power[i])
	}
	byNom = make([]int32, n)
	for i := range byNom {
		byNom[i] = int32(i)
	}
	slices.SortStableFunc(byNom, func(a, b int32) int { return cmp.Compare(nom[a], nom[b]) })
	nomAt = make([]float64, n)
	pSuf = make([]float64, n)
	low := math.Inf(1)
	for r := n - 1; r >= 0; r-- {
		nomAt[r] = nom[byNom[r]]
		low = min(low, power[byNom[r]])
		pSuf[r] = low
	}
	return byNom, nomAt, pSuf, pMax
}

// finiteNonNeg reports 0 ≤ x < +Inf.
func finiteNonNeg(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// qualitySlack is the relative head-room qualityBound leaves for float64
// rounding.
const qualitySlack = 0x1p-40

// qualityBound returns an upper bound on the expected Quality of a
// candidate whose reachable outcomes are a deadline miss (qFail) or one of
// accs, valid for every spec and filter state.
//
// Quality is a sum Σ a_j·w_j over those outcomes whose weights are
// non-negative and sum to exactly 1 in real arithmetic: P and 1−P for a
// traditional candidate (Eq. 7); the ladder's telescoping differences
// pr_si − pr_si+1 (each pr_si+1 is clamped to ≤ pr_si) plus the miss mass
// 1 − raws[0] for an anytime one (Eq. 13). Exactly, then, it is at most
// M = max a_j. In float64 every weight, every product, and every running
// sum rounds once, so with n terms the computed value exceeds the exact one
// by less than (n+3)·2⁻⁵³·A, A = max |a_j|. The bound returned is
// M + 2⁻⁴⁰·A, which covers ladders of thousands of stages; the slack can
// only make the scan skip less, never wrongly. If any completion
// probability is NaN the Quality is NaN, which consider never accepts
// either (NaN > x is false), so the bound's verdict still stands.
func qualityBound(qFail float64, accs ...float64) float64 {
	m, a := qFail, math.Abs(qFail)
	for _, v := range accs {
		m = math.Max(m, v)
		a = math.Max(a, math.Abs(v))
	}
	return m + a*qualitySlack
}

// Scratch is the scan workspace: the anytime ladder's per-stage completion
// probabilities for one estimateFast call, sized to the engine's longest
// stage ladder so the hot path never allocates, plus the memo of which
// (ladder, cut, µ, σ) the buffer's prefix of length ladderN currently
// holds, letting consecutive stop-stage candidates reuse it (see
// estimateFast).
//
// A Scratch is pure workspace, not state: every value read from it during
// a scan is fully determined by the memo key or was written earlier in the
// same scan, so scans produce identical results whether the workspace is
// private, shared across the sessions of a serving shard, or freshly
// zeroed. It must only be shared by sessions driven from one goroutine —
// which is also why its scan counters are plain ints.
type Scratch struct {
	buf         []float64
	ladderNom   *float64
	ladderCut   float64
	ladderMu    float64
	ladderSigma float64
	ladderN     int

	// scored counts candidates that got past the CDF-free bounds and had
	// CDFs evaluated; costed counts cost evaluations, the CDF-free work the
	// visit order and the goal-reach test did not avoid; fallbacks counts
	// scans that found nothing feasible and served the infeasibility
	// fallback. All three accumulate until TakeScanCounts; costed is read
	// only by tests.
	scored    int
	costed    int
	fallbacks int
}

// TakeScanCounts returns and resets the workspace's scan counters: how many
// candidates the scans since the last call scored (the work the CDF-free
// bounds did not avoid) and how many of those scans ended in the
// infeasibility fallback. The serving shard that owns the workspace folds
// them into its counters.
func (sc *Scratch) TakeScanCounts() (scored, fallbacks int) {
	scored, fallbacks = sc.scored, sc.fallbacks
	sc.scored, sc.costed, sc.fallbacks = 0, 0, 0
	return scored, fallbacks
}

// scoreParams are the per-Decide invariants of candidate scoring: the
// current ξ belief, the idle-power ratio, and the two standard-normal
// quantiles the naive scorer recomputed per candidate.
type scoreParams struct {
	mu, sigma float64
	// phi is the idle-power ratio φ of Eq. 9.
	phi float64
	// zEnergy is NormQuantile(energyQuantile(spec), µ, σ): the Eq. 12
	// latency quantile per unit of nominal work.
	zEnergy float64
	// zStop is NormQuantile(q, µ, σ) for the §3.5 stop quantile (Prth when
	// the spec sets one): the planned-stop budget per unit of nominal work.
	zStop float64
	// zConf is the standard-normal quantile of the chance-constraint level
	// (Prth when the spec sets one, else Options.Confidence), which places
	// the scan's chance-constraint line (chanceLine).
	zConf float64
}

// scoreParamsFor computes the per-Decide invariants once. The
// standard-normal quantiles of the engine's own levels were computed at
// NewEngine; only a spec that sets Prth pays for a PhiInv here. Scaling
// through mathx.NormQuantileZ is the very expression the naive scorer's
// NormQuantile evaluates, so the result is the same bits.
func (e *Engine) scoreParamsFor(st *State, spec Spec) scoreParams {
	p := scoreParams{mu: st.Xi.Mu, sigma: e.sigmaForPrediction(st), phi: st.Idle.Phi, zConf: e.zConf}
	zEnergy, zStop := e.zEnergy, e.zStop
	if spec.Prth > 0 {
		zEnergy = mathx.PhiInv(spec.Prth)
		zStop, p.zConf = zEnergy, zEnergy
	}
	p.zEnergy = mathx.NormQuantileZ(zEnergy, p.mu, p.sigma)
	p.zStop = mathx.NormQuantileZ(zStop, p.mu, p.sigma)
	return p
}

// prWithin is Eq. 6's building block: the probability that a work chunk of
// nominal duration d completes within budget b, Pr[ξ·d ≤ b].
func prWithin(d, b, mu, sigma float64) float64 {
	if d <= 0 {
		return 1
	}
	return mathx.NormCDF(b/d, mu, sigma)
}

// candCost is the CDF-free half of a candidate's score: the planned stop
// and cut of an anytime candidate, the mean executed latency, and the
// Eq. 9/12 energy. It needs only the hoisted quantiles, the nominal work
// and the profiled power, so the scan can compare a candidate's Energy
// against the running best before paying for a single erf.
type candCost struct {
	plannedStop, cut float64 // zero for traditional candidates
	latMean          float64
	energy           float64
}

// cost computes candidate i's candCost. It is the only implementation of
// these values: estimateFast copies them into the Estimate and the scan's
// pruning test reads energy from the same struct, so what is compared is
// bit-for-bit what would have been scored.
//
// min is the builtin where the naive scorer calls math.Min: the two agree
// on every input (NaN propagates, −0 orders below +0, ±Inf are honoured),
// and the builtin inlines where math.Min is an assembly call on amd64.
func (space *candSpace) cost(i int32, goal float64, p *scoreParams) candCost {
	w := space.execNom[i]
	var c candCost
	if space.stop[i] < 0 {
		c.latMean = p.mu * w
		lat := p.zEnergy * w
		if lat < c.latMean {
			lat = c.latMean
		}
		c.energy = energyAt(space.power[i], lat, goal, p.phi)
		return c
	}
	stop := goal
	if !space.runToDL[i] {
		stop = p.zStop * w
		if stop > goal {
			stop = goal
		}
		if stop <= 0 {
			stop = goal
		}
	}
	c.plannedStop = stop
	c.cut = min(stop, goal)
	c.latMean = min(p.mu*w, c.cut)
	qExec := min(p.zEnergy*w, c.cut)
	if qExec < c.latMean {
		qExec = c.latMean
	}
	c.energy = energyAt(space.power[i], qExec, goal, p.phi)
	return c
}

// goalStage resolves which completion probability is candidate i's
// PrQuality under an accuracy goal: goalNone (PrQuality is 1), goalMissed
// (PrQuality is 0, known without a CDF), or the index of the first stage at
// or above the goal, whose completion probability it is (0 for a
// traditional candidate: its PrDeadline). Only the stage index costs a walk
// of the ladder; both verdicts are O(1).
func (space *candSpace) goalStage(i int32, accGoal float64) int {
	if accGoal <= 0 || space.qFail[i] >= accGoal {
		return goalNone
	}
	if !(space.reach[i] >= accGoal) {
		return goalMissed
	}
	// reach is one of accs[0..stop], so the walk stops by the stop stage.
	accs := space.stageAcc[i]
	si := 0
	for accs != nil && !(accs[si] >= accGoal) {
		si++
	}
	return si
}

// goalProb is PrQuality under goalStage's verdict gs: 1 when no goal binds,
// 0 when no reachable output meets it, else prGoal, the completion
// probability of stage gs.
func goalProb(gs int, prGoal float64) float64 {
	switch gs {
	case goalNone:
		return 1
	case goalMissed:
		return 0
	}
	return prGoal
}

const (
	// goalNone: the spec has no accuracy goal, or even a deadline miss
	// meets it.
	goalNone = -1
	// goalMissed: no output the candidate can produce reaches the goal.
	goalMissed = -2
)

// estimateFast scores candidate i under the spec into est, producing the
// exact Estimate the naive estimate() produces (the differential tests in
// differential_test.go pin the equality with ==). goal is the adjusted
// deadline; p the hoisted per-Decide invariants; c the candidate's
// space.cost(i, goal, p); sc the scan workspace. The Estimate is written
// in place, not returned, so neither pass of the scan copies one per
// scored candidate.
func (e *Engine) estimateFast(sc *Scratch, est *Estimate, i int32, goal float64, spec Spec, p *scoreParams, c candCost) {
	space := &e.space
	*est = Estimate{
		Candidate:   e.candidates[i],
		LatMean:     c.latMean,
		Energy:      c.energy,
		PlannedStop: c.plannedStop,
	}
	gs := space.goalStage(i, spec.AccuracyGoal)

	if space.stop[i] < 0 {
		est.PrDeadline = prWithin(space.execNom[i], goal, p.mu, p.sigma)
		est.Quality = est.PrDeadline*space.acc[i] + (1-est.PrDeadline)*space.qFail[i]
		est.PrQuality = goalProb(gs, est.PrDeadline)
		return
	}

	nom := space.stageNom[i]
	accs := space.stageAcc[i]
	k := int(space.stop[i])
	cut := c.cut

	// Raw (unclamped) per-stage completion probabilities, each evaluated
	// once; the naive ladder evaluates stage si+1's CDF as the look-ahead of
	// iteration si and again as iteration si+1's own term.
	//
	// Consecutive candidates in enumeration order share (model, cap) —
	// hence the same nominal-latency ladder — and differ only in stop
	// stage. Whenever they also share the cut (tight deadlines clamp every
	// stop to the goal), the raw CDFs already sitting in the workspace are
	// bit-exact for this candidate too: raws[si] depends only on
	// (nom, cut, µ, σ). The memo keys on exactly those, so a K-stage
	// ladder's scan degrades from O(K²) CDF evaluations to O(K) when cuts
	// coincide, with zero effect otherwise — including when the workspace
	// is shared with other sessions of the serving shard, when pruning
	// skips candidates in between, and when the nominal-energy visit order
	// interleaves ladders.
	raws := sc.buf[:k+1]
	start := 0
	if sc.ladderN > 0 && &nom[0] == sc.ladderNom && cut == sc.ladderCut &&
		p.mu == sc.ladderMu && p.sigma == sc.ladderSigma {
		start = sc.ladderN
	} else {
		sc.ladderNom, sc.ladderCut, sc.ladderMu, sc.ladderSigma = &nom[0], cut, p.mu, p.sigma
		sc.ladderN = 0
	}
	for si := start; si <= k; si++ {
		sc.buf[si] = prWithin(nom[si], cut, p.mu, p.sigma)
	}
	if k+1 > sc.ladderN {
		sc.ladderN = k + 1
	}

	// Quality ladder under the cut. The clamped probability of iteration
	// si+1 equals iteration si's look-ahead term, so one running value
	// carries the whole recurrence.
	pr := raws[0] // min(raws[0], 1) — a CDF never exceeds 1
	quality := 0.0
	for si := 0; si <= k; si++ {
		nextPr := 0.0
		if si < k {
			nextPr = min(raws[si+1], pr)
		}
		quality += accs[si] * (pr - nextPr)
		pr = nextPr
	}
	quality += space.qFail[i] * (1 - raws[0])
	est.Quality = quality
	est.PrDeadline = raws[k]
	prGoal := 0.0
	if gs >= 0 {
		prGoal = raws[gs]
	}
	est.PrQuality = goalProb(gs, prGoal)
}

// selector accumulates the feasible optimum under the spec's objective
// plus the infeasibility fallback (quality-maximal, energy tiebreak — §4's
// latency > accuracy > power hierarchy). One implementation serves both
// the fast and the reference scan, so the selection semantics cannot
// silently diverge between them.
type selector struct {
	spec           Spec
	conf           float64
	minimizeEnergy bool
	best, fb       Estimate
	bestIdx        int32 // best's candidate index
	bestSet, fbSet bool
}

func (e *Engine) newSelector(spec Spec) selector {
	sel := selector{spec: spec, conf: e.opts.Confidence,
		minimizeEnergy: spec.Objective == MinimizeEnergy}
	if spec.Prth > 0 {
		sel.conf = spec.Prth
	}
	return sel
}

// consider folds candidate i's estimate into the running best, reproducing
// the pre-optimization Decide semantics exactly: the winner is the
// first-enumerated of the best, whatever order the candidates arrive in.
// Under MaximizeAccuracy that needs enumeration order (a tie on Quality
// keeps the held best); under MinimizeEnergy the index breaks ties on
// Energy, so any order gives the same winner as long as no Energy is NaN
// (see visitOrder).
func (s *selector) consider(e *Estimate, i int32) {
	if s.spec.Prth > 0 && e.PrDeadline < s.spec.Prth {
		return
	}
	// Latency is a constraint in both tasks; anytime candidates are
	// exempt (the runtime cuts them at the goal).
	if e.StopStage < 0 && e.PrDeadline < s.conf {
		return
	}
	if s.minimizeEnergy {
		if e.PrQuality < s.conf {
			return
		}
	} else if s.spec.EnergyBudget > 0 && e.Energy > s.spec.EnergyBudget {
		return
	}
	if !s.bestSet ||
		(s.minimizeEnergy && s.lowerEnergy(e.Energy, i)) ||
		(!s.minimizeEnergy && e.Quality > s.best.Quality) {
		s.best, s.bestIdx, s.bestSet = *e, i, true
	}
}

// lowerEnergy reports that candidate i, at the given Energy, would displace
// the held best under MinimizeEnergy: a strictly lower Energy, or an equal
// one and an earlier enumeration index.
func (s *selector) lowerEnergy(energy float64, i int32) bool {
	return energy < s.best.Energy || (energy == s.best.Energy && i < s.bestIdx)
}

// offerFallback folds one candidate's estimate into the infeasibility
// fallback. Decide reads the fallback only when no candidate is feasible,
// and then it is the fold of every candidate in enumeration order.
// A candidate replaces the held fallback on a higher Quality, or an equal
// Quality and a lower Energy, so a full tie keeps the first-enumerated.
func (s *selector) offerFallback(e *Estimate) {
	if !s.fbSet || e.Quality > s.fb.Quality || (e.Quality == s.fb.Quality && e.Energy < s.fb.Energy) {
		s.fb, s.fbSet = *e, true
	}
}

// goalLevel returns the reach level a candidate needs to be worth scoring:
// the scan skips candidate i, before any cost is computed, when
// reachLvl[i] lies below it. MinimizeEnergy accepts only when e.PrQuality ≥
// conf > 0, which a PrQuality of exactly 0 (goalStage's goalMissed: no
// reachable output meets the goal) cannot satisfy, and goalMissed holds
// exactly when the candidate's reach level lies below the first level at
// or above a goal g > 0. One binary search per Decide finds that level. A non-positive goal
// is missed by nothing (level 0), a NaN goal by everything (every level);
// MaximizeAccuracy has no such constraint (level 0). Index 255 stands for
// every level from index 255 up, so a goal that needs one of those skips
// only the candidates below index 255, each of which provably misses it.
func (s *selector) goalLevel(space *candSpace) int {
	g := s.spec.AccuracyGoal
	switch {
	case !s.minimizeEnergy || g <= 0:
		return 0
	case g != g:
		return min(len(space.levels), math.MaxUint8)
	}
	k, _ := slices.BinarySearch(space.levels, g)
	return min(k, math.MaxUint8)
}

// chanceLine returns x0, the chance-constraint line: every budget-per-work
// ratio x ≤ x0 has a completion probability NormCDF(x, µ, σ) below conf,
// the level consider holds PrDeadline and PrQuality against. It is NaN,
// which no ratio lies at or below, when there is no such line: σ ≤ 0 (a
// step CDF), a non-finite input, or a check that fails.
//
// x0 = µ + σ·(zConf − 2⁻¹⁶) sits just below the conf quantile, and is kept
// only if NormCDF(x0, µ, σ) < conf − 2⁻⁴⁰ as computed. For x ≤ x0 the
// computed standardization (x−µ)/σ/√2 is at most x0's, as float
// subtraction and division by a positive number are monotone; math.Erf is
// within 1 ulp of the monotone erf, so Erf there exceeds Erf at x0 by at
// most 2 ulps, and 0.5·(1+Erf) by a few 2⁻⁵³ at most, well inside the
// 2⁻⁴⁰ the check left. So every x ≤ x0 computes below conf, ties
// included, and a NaN x, compared false, is never below the line.
func (p *scoreParams) chanceLine(conf float64) float64 {
	x0 := p.mu + p.sigma*(p.zConf-0x1p-16)
	if !(p.sigma > 0 && finite(p.mu) && finite(p.sigma) && finite(x0) &&
		mathx.NormCDF(x0, p.mu, p.sigma) < conf-qualitySlack) {
		return math.NaN()
	}
	return x0
}

// belowLine reports that consider would reject candidate i, whose cost is
// c, because the completion probability it holds against conf is
// prWithin(d, b) = NormCDF(b/d, µ, σ) with b/d at or below the line x0
// (chanceLine). That probability is PrDeadline = prWithin(execNom, goal)
// for a traditional candidate, PrDeadline = prWithin(execNom, cut) for an
// anytime one when the spec sets Prth (then conf is Prth), and
// PrQuality = prWithin(stageNom[goalStage], cut) for an anytime one under
// MinimizeEnergy. b/d is the very division prWithin performs; a d ≤ 0
// completes with probability 1 and is never below the line.
func (s *selector) belowLine(space *candSpace, i int32, c *candCost, goal, x0 float64) bool {
	d, b := space.execNom[i], goal
	if space.stop[i] >= 0 {
		b = c.cut
		if !(s.spec.Prth > 0) {
			if !s.minimizeEnergy {
				return false
			}
			gs := space.goalStage(i, s.spec.AccuracyGoal)
			if gs < 0 {
				return false
			}
			d = space.stageNom[i][gs]
		}
	}
	return d > 0 && b/d <= x0
}

// prune reports, from candidate i's CDF-free cost c alone, that consider
// would reject it: it cannot be feasible, or a best is held that it cannot
// replace. Each clause is the literal negation of a test consider applies,
// on the very values consider would see, so a skipped candidate is one
// consider would have dropped — ties included:
//
//   - MinimizeEnergy, once a best is held, accepts only on lowerEnergy.
//   - MaximizeAccuracy rejects e.Energy > EnergyBudget, and once a best is
//     held accepts only on e.Quality > best.Quality, impossible when even
//     the candidate's Quality bound (qualityBound) lies strictly below
//     best.Quality.
func (s *selector) prune(space *candSpace, i int32, c candCost) bool {
	if s.minimizeEnergy {
		return s.bestSet && !s.lowerEnergy(c.energy, i)
	}
	return (s.spec.EnergyBudget > 0 && c.energy > s.spec.EnergyBudget) ||
		(s.bestSet && space.qualUB[i] < s.best.Quality)
}

// energyFloor bounds from below the Energy cost computes for every
// candidate at visit position r or later of the nominal-energy order, so
// the scan stops at the first position whose floor lies strictly above the
// held best's Energy: nothing from there on can beat or tie it.
//
// With p a candidate's power, w its nominal work, lat the latency its
// energy is taken at and κ = min(max(zEnergy, µ), zStop if zStop > 0):
//
//   - lat ≥ κ·w for a traditional candidate (lat = max(zEnergy, µ)·w), and
//     lat ≥ min(κ·w, goal) for an anytime one (its cut is the goal or a
//     positive zStop·w capped at the goal);
//   - Eq. 9 energy is p·(φ·goal + (1−φ)·lat) for lat ≤ goal and p·lat ≥
//     p·goal beyond it, so for φ ∈ [0, 1] it is at least
//     p·(φ·goal + (1−φ)·min(lat, goal));
//   - p ≥ pSuf[r], the least power from position r on, and p·w is
//     nomAt[r] or more there.
//
// Hence Energy ≥ φ·goal·pSuf[r] + (1−φ)·min(κ·nomAt[r], goal·pSuf[r]).
// Every term is non-negative, so float64 rounding moves each side by a
// relative few 2⁻⁵³, which the 2⁻⁴⁰ slack covers as in qualityBound; tiny
// covers what relative error cannot, a product rounded in the subnormal
// range and then scaled by at most goal, κ or pMax.
type energyFloor struct {
	nomAt, pSuf                   []float64
	kappa, goal, phi, slope, tiny float64
}

// at returns the floor for visit position r.
func (f *energyFloor) at(r int) float64 {
	goalP := f.goal * f.pSuf[r]
	return (f.phi*goalP+f.slope*min(f.kappa*f.nomAt[r], goalP))*(1-qualitySlack) - f.tiny
}

// visitOrder returns the order scan visits the candidates in, and whether
// it may stop at energyFloor. MinimizeEnergy visits them in ascending
// nominal energy when the floor's argument holds: µ, the quantiles and the
// goal finite, goal > 0, φ ∈ [0, 1], κ ≥ 0, and goal·pMax at most 2¹⁰⁰⁰ so
// the floor cannot overflow. Finite inputs keep every Energy finite, so
// the lowest Energy with ties to the lowest index — what consider selects
// — does not depend on the order. Anything else is visited in enumeration
// order, with no early exit.
func (space *candSpace) visitOrder(goal float64, p *scoreParams, minimizeEnergy bool) ([]int32, energyFloor, bool) {
	if !minimizeEnergy || space.byNom == nil {
		return space.enum, energyFloor{}, false
	}
	kappa := max(p.zEnergy, p.mu)
	if p.zStop > 0 {
		kappa = min(kappa, p.zStop)
	}
	if !(finite(p.mu) && finite(p.zEnergy) && finite(p.zStop) && finite(goal) &&
		goal > 0 && p.phi >= 0 && p.phi <= 1 && kappa >= 0 && goal*space.pMax <= 0x1p1000) {
		return space.enum, energyFloor{}, false
	}
	return space.byNom, energyFloor{
		nomAt: space.nomAt,
		pSuf:  space.pSuf,
		kappa: kappa,
		goal:  goal,
		phi:   p.phi,
		slope: 1 - p.phi,
		tiny:  0x1p-1000 * (1 + goal + kappa + space.pMax),
	}, true
}

// finite reports that x is neither NaN nor ±Inf.
func finite(x float64) bool { return x-x == 0 }

// settle ends a scan: it books the scan's work on the workspace counters
// and returns the feasible optimum, or the infeasibility fallback when
// nothing was feasible.
func (sc *Scratch) settle(sel *selector, scored, costed int) Estimate {
	sc.scored += scored
	sc.costed += costed
	if !sel.bestSet {
		sc.fallbacks++
		return sel.fb
	}
	return sel.best
}

// scan selects among the engine's candidates and returns what
// scanReference returns, bit for bit, while paying for CDFs only where they
// can matter. It visits the candidates in visitOrder: ascending nominal
// energy under MinimizeEnergy, enumeration order otherwise. At each visit
// position:
//
//  1. Under MinimizeEnergy with a best held, if the energy floor of this
//     position lies strictly above the best's Energy, no candidate left
//     can beat or tie it: stop.
//  2. The goal-reach skip (reachLvl below goalLevel), then prune on the
//     CDF-free cost, then, once one candidate has been scored, the
//     chance-constraint line (belowLine): if the candidate provably cannot
//     be feasible, or cannot replace the held best, move on. Nothing else
//     wants the skipped estimate: the fallback is computed by its own pass
//     (fallback). The line costs one CDF to build, so it is built only
//     when a second candidate gets that far; a warm decide, whose first
//     scored candidate usually wins, never builds it.
//  3. Survivors get the full estimateFast ladder and go through consider
//     like every candidate of the reference scan.
//
// If nothing was feasible, the fallback pass picks the answer.
func (e *Engine) scan(sc *Scratch, st *State, goal float64, spec Spec) Estimate {
	p := e.scoreParamsFor(st, spec)
	sel := e.newSelector(spec)
	space := &e.space
	order, floor, early := space.visitOrder(goal, &p, sel.minimizeEnergy)
	need := sel.goalLevel(space)
	x0, lined := 0.0, false
	scored, costed := 0, 0
	var est Estimate
	for r, i := range order {
		if early && sel.bestSet && floor.at(r) > sel.best.Energy {
			break
		}
		if int(space.reachLvl[i]) < need {
			continue
		}
		c := space.cost(i, goal, &p)
		costed++
		if sel.prune(space, i, c) {
			continue
		}
		if scored > 0 {
			if !lined {
				x0, lined = p.chanceLine(sel.conf), true
			}
			if sel.belowLine(space, i, &c, goal, x0) {
				continue
			}
		}
		e.estimateFast(sc, &est, i, goal, spec, &p, c)
		scored++
		sel.consider(&est, i)
	}
	if !sel.bestSet {
		n := e.fallback(sc, goal, spec, &p, &sel)
		scored += n
		costed += n
	}
	return sc.settle(&sel, scored, costed)
}

// fallback is the scan's second pass, run only when the first found
// nothing feasible. It folds every candidate into the fallback in
// enumeration order, as the reference scan does, and returns how many it
// scored. A candidate whose quality bound lies strictly below the held
// fallback's Quality can neither beat nor tie it, so it is skipped
// unscored. Nothing is carried over from the first pass, so a candidate
// both passes keep is scored twice; the pass runs on at most 0.02 % of
// the decides of any bench/ workload.
func (e *Engine) fallback(sc *Scratch, goal float64, spec Spec, p *scoreParams, sel *selector) int {
	space := &e.space
	scored := 0
	var est Estimate
	for i := int32(0); i < int32(len(space.stop)); i++ {
		if sel.fbSet && space.qualUB[i] < sel.fb.Quality {
			continue
		}
		e.estimateFast(sc, &est, i, goal, spec, p, space.cost(i, goal, p))
		scored++
		sel.offerFallback(&est)
	}
	return scored
}

// scanReference is scan with the naive per-candidate estimate() and no
// pruning — the pre-optimization scorer retained as the
// differential-testing oracle and selectable at runtime via
// Options.ReferenceScorer.
func (e *Engine) scanReference(sc *Scratch, st *State, goal float64, spec Spec) Estimate {
	sel := e.newSelector(spec)
	for i, cand := range e.candidates {
		est := e.estimate(st, cand, goal, spec)
		sel.offerFallback(&est)
		sel.consider(&est, int32(i))
	}
	return sc.settle(&sel, len(e.candidates), 0)
}
