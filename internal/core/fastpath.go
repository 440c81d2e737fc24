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
//     lives on the shared Engine: every Session scans the same arrays.
//  2. Loop-invariant hoisting (scoreParams): the standard-normal quantiles
//     behind the Eq. 12 energy estimate and the §3.5 anytime stop plan
//     depend only on (spec, filter state), not on the candidate, yet the
//     naive scorer paid one mathx.NormQuantile per candidate. They are now
//     computed once per Decide. The anytime quality ladder likewise
//     evaluates each stage's completion probability once instead of twice
//     (the naive ladder recomputes stage si+1's CDF as it advances).
//  3. Bit-exactness over micro-tricks: the scan must stay byte-identical to
//     the naive estimate/EstimateAll oracle (the differential tests compare
//     Estimates with ==), so only transformations that reproduce the exact
//     same float64 operation sequence are admitted. In particular the
//     (x−µ)/σ standardization keeps the division: multiplying by a
//     precomputed 1/σ (or 1/t_prof) is faster but perturbs the last ulp,
//     which can flip a near-tie between candidates.
//  4. Bound-and-prune (scan): most candidates cannot displace the running
//     best, and a CDF-free test — the literal negation of the selector's
//     own acceptance test, on the candidate's exact Energy — proves it for
//     each of them before any erf is evaluated.

import (
	"math"

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
	// stageNom[i][si] is stage si's nominal latency LatencyFrac·t_prof at
	// the candidate's (model, cap); stageAcc[i][si] its accuracy. nil for
	// traditional candidates. Candidates sharing (model, cap) share the
	// backing slice.
	stageNom [][]float64
	stageAcc [][]float64
	// maxStages sizes the Scratch buffer for ladder CDFs.
	maxStages int
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
		if len(m.Stages) > s.maxStages {
			s.maxStages = len(m.Stages)
		}
	}
	return s
}

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
// a scan is fully determined by the memo key, so scans produce identical
// results whether the workspace is private, shared across the sessions of
// a serving shard, or freshly zeroed. It must only be shared by sessions
// driven from one goroutine — which is also why its scan counters are plain
// ints.
type Scratch struct {
	buf         []float64
	ladderNom   *float64
	ladderCut   float64
	ladderMu    float64
	ladderSigma float64
	ladderN     int

	// scored counts candidates that went through the full CDF ladder;
	// fallbacks counts scans that found nothing feasible and served the
	// infeasibility fallback. Both accumulate until TakeScanCounts.
	scored    int
	fallbacks int
}

// TakeScanCounts returns and resets the workspace's scan counters: how many
// candidates the scans since the last call scored in full (the work the
// pruning did not avoid) and how many of those scans ended in the
// infeasibility fallback. The serving shard that owns the workspace folds
// them into its counters.
func (sc *Scratch) TakeScanCounts() (scored, fallbacks int) {
	scored, fallbacks = sc.scored, sc.fallbacks
	sc.scored, sc.fallbacks = 0, 0
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
}

// scoreParamsFor computes the per-Decide invariants once.
func (s *Session) scoreParamsFor(spec Spec) scoreParams {
	p := scoreParams{mu: s.xi.Mean(), sigma: s.sigmaForPrediction(), phi: s.idle.Ratio()}
	eq := s.energyQuantile(spec)
	p.zEnergy = mathx.NormQuantile(eq, p.mu, p.sigma)
	q := s.eng.opts.StopQuantile
	if spec.Prth > 0 {
		q = spec.Prth
	}
	// The two quantile levels coincide whenever the spec sets Prth and under
	// the default options; NormQuantile is a pure function, so reusing its
	// result is the same bits.
	p.zStop = p.zEnergy
	if q != eq {
		p.zStop = mathx.NormQuantile(q, p.mu, p.sigma)
	}
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
// traditional candidate: its PrDeadline).
func (space *candSpace) goalStage(i int32, accGoal float64) int {
	if accGoal <= 0 || space.qFail[i] >= accGoal {
		return goalNone
	}
	accs := space.stageAcc[i]
	if accs == nil {
		if space.acc[i] >= accGoal {
			return 0
		}
		return goalMissed
	}
	for si := 0; si <= int(space.stop[i]); si++ {
		if accs[si] >= accGoal {
			return si
		}
	}
	return goalMissed
}

const (
	// goalNone: the spec has no accuracy goal, or even a deadline miss
	// meets it.
	goalNone = -1
	// goalMissed: no output the candidate can produce reaches the goal.
	goalMissed = -2
)

// estimateFast scores candidate i under the spec, producing the exact
// Estimate the naive estimate() produces (the differential tests in
// differential_test.go pin the equality with ==). goal is the adjusted
// deadline; p the hoisted per-Decide invariants; c the candidate's
// space.cost(i, goal, p).
func (s *Session) estimateFast(i int32, goal float64, spec Spec, p *scoreParams, c candCost) Estimate {
	space := &s.eng.space
	est := Estimate{
		Candidate:   s.eng.candidates[i],
		LatMean:     c.latMean,
		Energy:      c.energy,
		PlannedStop: c.plannedStop,
	}
	gs := space.goalStage(i, spec.AccuracyGoal)

	if space.stop[i] < 0 {
		est.PrDeadline = prWithin(space.execNom[i], goal, p.mu, p.sigma)
		est.Quality = est.PrDeadline*space.acc[i] + (1-est.PrDeadline)*space.qFail[i]
		switch gs {
		case goalNone:
			est.PrQuality = 1
		case goalMissed:
			est.PrQuality = 0
		default:
			est.PrQuality = est.PrDeadline
		}
		return est
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
	// is shared with other sessions of the serving shard, and when pruning
	// skips candidates in between.
	sc := s.sc
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

	switch gs {
	case goalNone:
		est.PrQuality = 1
	case goalMissed:
		est.PrQuality = 0
	default:
		est.PrQuality = raws[gs]
	}
	return est
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
	bestSet, fbSet bool
}

func (s *Session) newSelector(spec Spec) selector {
	sel := selector{spec: spec, conf: s.eng.opts.Confidence,
		minimizeEnergy: spec.Objective == MinimizeEnergy}
	if spec.Prth > 0 {
		sel.conf = spec.Prth
	}
	return sel
}

// consider folds one candidate's estimate into the running selection,
// reproducing the pre-optimization Decide semantics exactly
// (candidates must arrive in enumeration order for identical tie breaks).
// The fallback is served only when no candidate is feasible, so it stops
// being maintained the moment a best exists.
func (s *selector) consider(e *Estimate) {
	if !s.bestSet && (!s.fbSet || e.Quality > s.fb.Quality ||
		(e.Quality == s.fb.Quality && e.Energy < s.fb.Energy)) {
		s.fb, s.fbSet = *e, true
	}
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
		(s.minimizeEnergy && e.Energy < s.best.Energy) ||
		(!s.minimizeEnergy && e.Quality > s.best.Quality) {
		s.best, s.bestSet = *e, true
	}
}

// cannotWin reports, from CDF-free facts alone, that consider would leave
// the held best untouched for candidate i with the given Energy. It may
// only be asked once a best exists (before that the fallback still needs
// every estimate). Each clause is the literal negation of a test consider
// applies, on the very values consider would see, so a skipped candidate is
// one consider would have dropped — ties included, which keep the
// first-enumerated winner because acceptance needs a strict improvement:
//
//   - MinimizeEnergy accepts only on e.Energy < best.Energy, and only when
//     e.PrQuality ≥ conf > 0, which a PrQuality of exactly 0 (no reachable
//     output meets the goal) cannot satisfy.
//   - MaximizeAccuracy rejects e.Energy > EnergyBudget, and accepts only on
//     e.Quality > best.Quality, impossible when even the candidate's
//     Quality bound (qualityBound) lies strictly below best.Quality.
func (s *selector) cannotWin(space *candSpace, i int32, energy float64) bool {
	if s.minimizeEnergy {
		return !(energy < s.best.Energy) ||
			space.goalStage(i, s.spec.AccuracyGoal) == goalMissed
	}
	return (s.spec.EnergyBudget > 0 && energy > s.spec.EnergyBudget) ||
		space.qualUB[i] < s.best.Quality
}

// settle ends a scan: it books the scan's work on the workspace counters
// and returns the feasible optimum, or the infeasibility fallback when
// nothing was feasible.
func (s *Session) settle(sel *selector, scored int) Estimate {
	s.sc.scored += scored
	if !sel.bestSet {
		s.sc.fallbacks++
		return sel.fb
	}
	return sel.best
}

// scan selects among the engine's candidates in enumeration order and
// returns what scanReference returns, bit for bit, while paying for the CDF
// ladder only where it can matter. Per candidate:
//
//  1. cost: Energy, planned stop and mean latency, none of which needs a
//     CDF.
//  2. Once a best is held, cannotWin: if the candidate provably cannot
//     replace it, move on. The fallback is dead from the same moment (it
//     is read only when nothing is feasible), so nothing else wanted the
//     skipped estimate.
//  3. Survivors get the full estimateFast ladder and go through consider
//     like every candidate of the reference scan.
func (s *Session) scan(goal float64, spec Spec) Estimate {
	p := s.scoreParamsFor(spec)
	sel := s.newSelector(spec)
	space := &s.eng.space
	scored := 0
	for i := int32(0); i < int32(len(space.stop)); i++ {
		c := space.cost(i, goal, &p)
		if sel.bestSet && sel.cannotWin(space, i, c.energy) {
			continue
		}
		est := s.estimateFast(i, goal, spec, &p, c)
		scored++
		sel.consider(&est)
	}
	return s.settle(&sel, scored)
}

// scanReference is scan with the naive per-candidate estimate() and no
// pruning — the pre-optimization scorer retained as the
// differential-testing oracle and selectable at runtime via
// Options.ReferenceScorer.
func (s *Session) scanReference(goal float64, spec Spec) Estimate {
	sel := s.newSelector(spec)
	for _, cand := range s.eng.candidates {
		est := s.estimate(cand, goal, spec)
		sel.consider(&est)
	}
	return s.settle(&sel, len(s.eng.candidates))
}
