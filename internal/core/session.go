package core

import (
	"math"

	"github.com/alert-project/alert/internal/kalman"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/sim"
)

// Session is the mutable per-stream half of the ALERT controller: the
// Kalman belief about the stream's environment (ξ and idle power) and two
// counters. Everything a decision needs beyond that — the candidate space,
// profile invariants, options, the filters' constants — is read from the
// shared immutable Engine, so a Session is 120 bytes no matter how large
// the configuration space is. It memoizes nothing: every Decide rescans
// (in the serving loop every Decide follows an Observe, so there was never
// anything to reuse).
//
// A Session serves one inference stream and is not safe for concurrent
// use; drive it from one goroutine at a time. Its decision sequence
// depends only on its own Decide/Observe history — never on sibling
// sessions of the same engine — so any interleaving of N sessions
// reproduces each stream's solo sequence bit-for-bit (the differential
// tests at the core, serve, and alertload levels pin exactly that).
type Session struct {
	eng *Engine
	// sc is the scan workspace, possibly shared with other sessions driven
	// by the same goroutine (see Engine.NewSessionWith).
	sc *Scratch

	// xi and idle are embedded by value: one allocation per session, not
	// three. Each points at its constants in the engine's options rather
	// than carrying a copy.
	xi   kalman.XiFilter
	idle kalman.IdlePowerFilter

	// epoch is the Observe count plus one; the snapshot format carries it.
	epoch uint64

	decisions int
}

// Engine returns the shared immutable engine this session decides against.
func (s *Session) Engine() *Engine { return s.eng }

// Candidates returns the engine's precomputed joint configuration space in
// enumeration order (read-only; shared by every Session).
func (s *Session) Candidates() []Candidate { return s.eng.candidates }

// Overhead returns the per-decision cost the session charges itself.
func (s *Session) Overhead() float64 { return s.eng.overhead }

// XiMean returns the current posterior mean of ξ.
func (s *Session) XiMean() float64 { return s.xi.Mean() }

// XiStd returns the current posterior standard deviation of ξ.
func (s *Session) XiStd() float64 { return s.xi.Std() }

// IdleRatio returns the current idle-power ratio estimate φ.
func (s *Session) IdleRatio() float64 { return s.idle.Ratio() }

// Decisions returns how many Decide calls have been served.
func (s *Session) Decisions() int { return s.decisions }

// FilterEpoch returns the filter epoch: 1 on a fresh session, advancing on
// every Observe.
func (s *Session) FilterEpoch() uint64 { return s.epoch }

// Observe feeds back the measurement of the input just executed (§3.2
// step 1) and advances the filter epoch.
func (s *Session) Observe(out sim.Outcome) {
	s.epoch++
	s.xi.Observe(out.ObservedXi)
	if out.CapApplied > 0 {
		s.idle.Observe(out.IdlePower / out.CapApplied)
	}
}

// adjustedGoal is the shared §3.2-step-2 deadline adjustment: the
// controller pre-subtracts its own worst-case decision cost, falling back
// to half the deadline when the overhead would consume it entirely.
func (s *Session) adjustedGoal(deadline float64) float64 {
	goal := deadline - s.eng.overhead
	if goal <= 0 {
		goal = deadline * 0.5
	}
	return goal
}

// sigmaForPrediction returns the ξ standard deviation used in predictions:
// the filter's predictive deviation for the next observation (posterior
// variance of the mean plus measurement noise), or zero for the ALERT*
// ablation. The posterior alone would under-margin every decision.
func (s *Session) sigmaForPrediction() float64 {
	if !s.eng.opts.UseVariance {
		return 0
	}
	return s.xi.PredictiveStd()
}

// estimate scores a single candidate under the spec. goal is the adjusted
// deadline (overhead already subtracted by the caller).
//
// This is the naive reference scorer, kept verbatim as the oracle the
// optimized hot path (fastpath.go) is differentially tested against:
// estimateFast must reproduce these Estimates bit-for-bit. EstimateAll and
// Options.ReferenceScorer score with it directly.
func (s *Session) estimate(cand Candidate, goal float64, spec Spec) Estimate {
	m := s.eng.prof.Models[cand.Model]
	power := s.eng.prof.PowerAt(cand.Model, cand.Cap)
	tProf := s.eng.prof.At(cand.Model, cand.Cap)
	mu, sigma := s.xi.Mean(), s.sigmaForPrediction()

	est := Estimate{Candidate: cand}

	// Probability that a work chunk of nominal duration d completes within
	// budget b: Pr[ξ·d ≤ b] (Eq. 6).
	prWithin := func(d, b float64) float64 {
		if d <= 0 {
			return 1
		}
		return mathx.NormCDF(b/d, mu, sigma)
	}

	if !m.IsAnytime() {
		est.LatMean = mu * tProf
		est.PrDeadline = prWithin(tProf, goal)
		// Eq. 7: expectation over the deadline step function.
		est.Quality = est.PrDeadline*m.Accuracy + (1-est.PrDeadline)*m.QFail
		switch {
		case spec.AccuracyGoal <= 0 || m.QFail >= spec.AccuracyGoal:
			est.PrQuality = 1
		case m.Accuracy >= spec.AccuracyGoal:
			est.PrQuality = est.PrDeadline
		default:
			est.PrQuality = 0
		}
		// Latency used for the energy estimate: the Eq. 12 quantile form,
		// at Prth when the user set one and at the default energy
		// confidence otherwise.
		lat := mathx.NormQuantile(s.energyQuantile(spec), mu, sigma) * tProf
		if lat < est.LatMean {
			lat = est.LatMean
		}
		est.Energy = energyAt(power, lat, goal, s.idle.Ratio())
		return est
	}

	// Anytime candidate stopped after stage k: execution is cut at
	// PlannedStop (never beyond the goal). Expected quality follows the
	// Eq. 13 ladder under the cut.
	k := cand.StopStage
	stageNominal := func(si int) float64 { return m.Stages[si].LatencyFrac * tProf }

	var stop float64
	if cand.RunToDeadline {
		stop = goal
	} else {
		q := s.eng.opts.StopQuantile
		if spec.Prth > 0 {
			q = spec.Prth
		}
		stop = mathx.NormQuantile(q, mu, sigma) * stageNominal(k)
		if stop > goal {
			stop = goal
		}
		if stop <= 0 {
			stop = goal
		}
	}
	est.PlannedStop = stop

	cut := math.Min(stop, goal)
	// Quality ladder: Pr[stage si completes before cut], non-increasing in
	// si; stages beyond the planned stop never complete.
	prev := 1.0
	quality := 0.0
	prFirst := 0.0
	for si := 0; si <= k; si++ {
		pr := prWithin(stageNominal(si), cut)
		if si == 0 {
			prFirst = pr
		}
		if pr > prev {
			pr = prev
		}
		nextPr := 0.0
		if si < k {
			nextPr = math.Min(prWithin(stageNominal(si+1), cut), pr)
		}
		quality += m.Stages[si].Accuracy * (pr - nextPr)
		prev = pr
	}
	quality += m.QFail * (1 - prFirst)
	est.Quality = quality
	est.PrDeadline = prWithin(stageNominal(k), cut)

	// Chance constraint on the realized quality: the first stage at or
	// above the goal must complete inside the cut.
	switch {
	case spec.AccuracyGoal <= 0 || m.QFail >= spec.AccuracyGoal:
		est.PrQuality = 1
	default:
		est.PrQuality = 0
		for si := 0; si <= k; si++ {
			if m.Stages[si].Accuracy >= spec.AccuracyGoal {
				est.PrQuality = prWithin(stageNominal(si), cut)
				break
			}
		}
	}

	// Executed time: the ladder runs until stage k finishes or the cut
	// hits, whichever is first; its mean is E[min(ξ·d, cut)], approximated
	// by min at the mean, the same first-order treatment Eq. 9 applies.
	meanExec := math.Min(mu*stageNominal(k), cut)
	est.LatMean = meanExec
	// Energy at the Eq. 12 quantile (the cut bounds it from above).
	qExec := math.Min(mathx.NormQuantile(s.energyQuantile(spec), mu, sigma)*stageNominal(k), cut)
	if qExec < meanExec {
		qExec = meanExec
	}
	est.Energy = energyAt(power, qExec, goal, s.idle.Ratio())
	return est
}

// energyQuantile resolves the latency quantile for energy estimates.
func (s *Session) energyQuantile(spec Spec) float64 {
	if spec.Prth > 0 {
		return spec.Prth
	}
	return s.eng.opts.EnergyConfidence
}

// energyAt is Eq. 9: inference at the configuration's profiled power p_{i,j}
// for lat seconds, then idle at φ·p_{i,j} for the remainder of the goal
// window. The naive and the fast scorer both call it, so their energies
// are the same operation sequence.
func energyAt(power, lat, goal, phi float64) float64 {
	idleTime := goal - lat
	if idleTime < 0 {
		idleTime = 0
	}
	return power*lat + phi*power*idleTime
}

// Decide selects the configuration for the next input (§3.2 steps 2–4).
// The returned Estimate describes the chosen candidate's predictions.
//
// The scan walks the engine's precomputed SoA candidate space with the
// per-Decide quantile math hoisted, and scores only the candidates that can
// be feasible and still displace the running best (fastpath.go); the
// feasibility rules are the chance constraints of Eq. 1/2 (10/11 with a
// threshold), and the infeasible fallback follows §4's latency > accuracy >
// power hierarchy: maximizing expected quality already privileges
// deadline-meeting (missing collapses quality to QFail), so the fallback is
// the quality-maximal candidate with energy as the tiebreaker.
func (s *Session) Decide(spec Spec) (sim.Decision, Estimate) {
	s.decisions++
	goal := s.adjustedGoal(spec.Deadline)
	var est Estimate
	if s.eng.opts.ReferenceScorer {
		est = s.scanReference(goal, spec)
	} else {
		est = s.scan(goal, spec)
	}
	return s.decisionFor(est), est
}

// decisionFor projects the winning estimate onto the executor's decision.
func (s *Session) decisionFor(best Estimate) sim.Decision {
	return sim.Decision{
		Model:       best.Model,
		Cap:         best.Cap,
		PlannedStop: best.PlannedStop,
		Overhead:    s.eng.overhead,
	}
}

// EstimateAll returns estimates for the full candidate space under the
// spec, scored with the naive reference estimator; used by tests, the
// Figure 9 trace tooling, and as the oracle the differential tests compare
// the optimized scan against.
func (s *Session) EstimateAll(spec Spec) []Estimate {
	goal := s.adjustedGoal(spec.Deadline)
	out := make([]Estimate, len(s.eng.candidates))
	for i, cand := range s.eng.candidates {
		out[i] = s.estimate(cand, goal, spec)
	}
	return out
}
