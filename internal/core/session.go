package core

import (
	"math"

	"github.com/alert-project/alert/internal/kalman"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/sim"
)

// State is the whole mutable state of one inference stream: the Kalman
// belief about the stream's environment (ξ and idle power) and two
// counters. Everything a decision needs beyond that — the candidate space,
// profile invariants, options, the filters' constants — is read from the
// shared immutable Engine, and the scan workspace is supplied by whoever
// drives the stream, so a State is 72 pointer-free bytes no matter how
// large the configuration space is. It is also, field for field, the body
// of the stream's snapshot (SessionSnapshot): restoring a stream is copying
// its State. It memoizes nothing: every Decide rescans (in the serving loop
// every Decide follows an Observe, so there was never anything to reuse).
//
// A stream's decision sequence depends only on its own Decide/Observe
// history — never on sibling streams of the same engine — so any
// interleaving of N streams reproduces each stream's solo sequence
// bit-for-bit (the differential tests at the core, serve, and alertload
// levels pin exactly that).
type State struct {
	// Epoch is the filter epoch: the Observe count plus one (no stream ever
	// carries epoch 0, so Validate treats it as corruption).
	Epoch uint64
	// Decisions is how many Decide calls the stream has served.
	Decisions int64
	// Xi and Idle are the two Kalman filter states.
	Xi   kalman.XiState
	Idle kalman.IdleState
}

// Session is one stream's State bound to the engine it decides against and
// a scan workspace: the form the paper's one-stream controller
// (alert.Scheduler) and the baselines drive. The serving layer keeps bare
// States and supplies the engine and workspace per call instead.
//
// A Session is not safe for concurrent use; drive it from one goroutine at
// a time.
type Session struct {
	eng *Engine
	// sc is the scan workspace, possibly shared with other sessions driven
	// by the same goroutine (see Engine.NewSessionWith).
	sc *Scratch
	st State
}

// XiMean returns the current posterior mean of ξ.
func (s *Session) XiMean() float64 { return s.st.Xi.Mu }

// XiStd returns the current posterior standard deviation of ξ.
func (s *Session) XiStd() float64 { return s.st.Xi.Std() }

// IdleRatio returns the current idle-power ratio estimate φ.
func (s *Session) IdleRatio() float64 { return s.st.Idle.Phi }

// Observe feeds back the measurement of the input just executed.
func (s *Session) Observe(out sim.Outcome) { s.eng.Observe(&s.st, out) }

// Decide selects the configuration for the next input (see Engine.Decide).
func (s *Session) Decide(spec Spec) (sim.Decision, Estimate) {
	return s.eng.Decide(s.sc, &s.st, spec)
}

// Observe folds the measurement of the input just executed into st (§3.2
// step 1) and advances its filter epoch.
func (e *Engine) Observe(st *State, out sim.Outcome) {
	st.Epoch++
	st.Xi.Observe(&e.opts.Xi, out.ObservedXi)
	if out.CapApplied > 0 {
		st.Idle.Observe(&e.opts.Idle, out.IdlePower/out.CapApplied)
	}
}

// adjustedGoal is the shared §3.2-step-2 deadline adjustment: the
// controller pre-subtracts its own worst-case decision cost, falling back
// to half the deadline when the overhead would consume it entirely.
func (e *Engine) adjustedGoal(deadline float64) float64 {
	goal := deadline - e.overhead
	if goal <= 0 {
		goal = deadline * 0.5
	}
	return goal
}

// sigmaForPrediction returns the ξ standard deviation used in predictions:
// the filter's predictive deviation for the next observation (posterior
// variance of the mean plus measurement noise), or zero for the ALERT*
// ablation. The posterior alone would under-margin every decision.
func (e *Engine) sigmaForPrediction(st *State) float64 {
	if !e.opts.UseVariance {
		return 0
	}
	return st.Xi.PredictiveStd(&e.opts.Xi)
}

// estimate scores a single candidate under the spec. goal is the adjusted
// deadline (overhead already subtracted by the caller).
//
// This is the naive reference scorer, kept verbatim as the oracle the
// optimized hot path (fastpath.go) is differentially tested against:
// estimateFast must reproduce these Estimates bit-for-bit. EstimateAll and
// Options.ReferenceScorer score with it directly.
func (e *Engine) estimate(st *State, cand Candidate, goal float64, spec Spec) Estimate {
	m := e.prof.Models[cand.Model]
	power := e.prof.PowerAt(cand.Model, cand.Cap)
	tProf := e.prof.At(cand.Model, cand.Cap)
	mu, sigma := st.Xi.Mu, e.sigmaForPrediction(st)

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
		lat := mathx.NormQuantile(e.energyQuantile(spec), mu, sigma) * tProf
		if lat < est.LatMean {
			lat = est.LatMean
		}
		est.Energy = energyAt(power, lat, goal, st.Idle.Phi)
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
		q := e.opts.StopQuantile
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
	qExec := math.Min(mathx.NormQuantile(e.energyQuantile(spec), mu, sigma)*stageNominal(k), cut)
	if qExec < meanExec {
		qExec = meanExec
	}
	est.Energy = energyAt(power, qExec, goal, st.Idle.Phi)
	return est
}

// energyQuantile resolves the latency quantile for energy estimates.
func (e *Engine) energyQuantile(spec Spec) float64 {
	if spec.Prth > 0 {
		return spec.Prth
	}
	return e.opts.EnergyConfidence
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

// Decide selects the configuration for st's next input (§3.2 steps 2–4)
// and counts the decision on st. sc is the scan workspace, from this
// engine's NewScratch (or grown for it by NewSessionWith). The returned
// Estimate describes the chosen candidate's predictions.
//
// The scan walks the engine's precomputed SoA candidate space with the
// per-Decide quantile math hoisted, and scores only the candidates that can
// be feasible and still displace the running best (fastpath.go); the
// feasibility rules are the chance constraints of Eq. 1/2 (10/11 with a
// threshold), and the infeasible fallback follows §4's latency > accuracy >
// power hierarchy: maximizing expected quality already privileges
// deadline-meeting (missing collapses quality to QFail), so the fallback is
// the quality-maximal candidate with energy as the tiebreaker.
func (e *Engine) Decide(sc *Scratch, st *State, spec Spec) (sim.Decision, Estimate) {
	st.Decisions++
	goal := e.adjustedGoal(spec.Deadline)
	var est Estimate
	if e.opts.ReferenceScorer {
		est = e.scanReference(sc, st, goal, spec)
	} else {
		est = e.scan(sc, st, goal, spec)
	}
	return e.decisionFor(est), est
}

// decisionFor projects the winning estimate onto the executor's decision.
func (e *Engine) decisionFor(best Estimate) sim.Decision {
	return sim.Decision{
		Model:       best.Model,
		Cap:         best.Cap,
		PlannedStop: best.PlannedStop,
		Overhead:    e.overhead,
	}
}

// EstimateAll returns estimates for the full candidate space under the
// spec, scored with the naive reference estimator; used by tests, the
// Figure 9 trace tooling, and as the oracle the differential tests compare
// the optimized scan against.
func (s *Session) EstimateAll(spec Spec) []Estimate {
	goal := s.eng.adjustedGoal(spec.Deadline)
	out := make([]Estimate, len(s.eng.candidates))
	for i, cand := range s.eng.candidates {
		out[i] = s.eng.estimate(&s.st, cand, goal, spec)
	}
	return out
}
