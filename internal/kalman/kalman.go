// Package kalman implements the two estimators at the heart of the ALERT
// runtime (Wan et al., USENIX ATC 2020):
//
//   - XiFilter: the adaptive-noise scalar Kalman filter of Eq. 5 that tracks
//     the global slowdown factor ξ, the single random variable relating the
//     current execution environment to the offline profiling environment.
//     Its novelty (relative to textbook filters) is twofold: the process
//     noise Q adapts to recent innovation magnitude with a forgetting factor
//     (following Akhlaghi et al. 2017), and the posterior *variance* is a
//     first-class output used by the controller as a volatility signal, not
//     just an internal quantity.
//
//   - IdlePowerFilter: the fixed-gain filter of Eq. 8 that tracks φ, the
//     ratio of DNN-idle system power to the active power cap, needed by the
//     energy prediction of Eq. 9 because co-located jobs keep drawing power
//     while the inference job waits for its next input.
package kalman

import "math"

// XiParams collects the Eq. 5 constants. The zero value is not useful; use
// DefaultXiParams, which matches the paper's initialization (§3.4).
type XiParams struct {
	// K0 is the initial Kalman gain K(0).
	K0 float64
	// R is the (constant) measurement noise.
	R float64
	// Q0 is the initial process noise and also its floor: the paper caps
	// Q from below at Q(0) so the filter never becomes complacent.
	Q0 float64
	// Mu0 is the initial mean of ξ; 1 means "behaves like the profile".
	Mu0 float64
	// Var0 is the initial variance of ξ.
	Var0 float64
	// Alpha is the forgetting factor for the adaptive process noise.
	Alpha float64
}

// DefaultXiParams returns the filter configuration used by this
// implementation: the paper's initialization (K(0)=0.5, µ(0)=1, σ²(0)=0.1,
// α=0.3, R=0.001) with the process-noise floor lowered to Q(0)=1e-4.
//
// The paper states Q(0)=0.1, but with R=0.001 that floor fixes the
// steady-state posterior at σ ≈ √Q(0) ≈ 0.32 and the gain at ≈0.99
// regardless of how quiet the environment is — the filter degenerates to
// "trust the last observation, with enormous uncertainty", which
// contradicts the paper's own worked example (§3.4) of completion
// probabilities like 97 % vs 99.9 % that require σ on the order of a few
// percent. With Q(0)=1e-4 the adaptive process noise does what the
// Akhlaghi extension intends: σ settles near 0.02 in calm environments and
// inflates past 0.1 within two or three surprise observations. See
// PaperLiteralXiParams for the stated constants.
func DefaultXiParams() XiParams {
	return XiParams{K0: 0.5, R: 0.001, Q0: 1e-4, Mu0: 1, Var0: 0.1, Alpha: 0.3}
}

// PaperLiteralXiParams returns the constants exactly as §3.4 states them,
// including Q(0)=0.1. Kept for reference and for the sensitivity tests
// that document why the default deviates.
func PaperLiteralXiParams() XiParams {
	return XiParams{K0: 0.5, R: 0.001, Q0: 0.1, Mu0: 1, Var0: 0.1, Alpha: 0.3}
}

// XiFilter tracks the global slowdown factor. It is deliberately scalar:
// ALERT's key design bet is that one number (plus its variance) suffices to
// re-rank the entire DNN × power-cap configuration space.
//
// The filter reads its constants through a pointer it never writes, so
// every filter built from one XiParams (e.g. every session of a
// core.Engine) shares it, and a filter costs its six state words plus one
// pointer.
type XiFilter struct {
	p *XiParams

	k      float64 // Kalman gain K(n)
	q      float64 // adaptive process noise Q(n)
	y      float64 // last innovation y(n)
	mu     float64 // posterior mean µ(n)
	sigma2 float64 // posterior variance σ²(n)
	n      int     // observations folded in so far
}

// NewXiFilter constructs a filter with its own copy of the parameters.
func NewXiFilter(p XiParams) *XiFilter {
	f := MakeXiFilter(&p)
	return &f
}

// MakeXiFilter returns an initialized filter by value, for embedding in a
// larger per-stream struct (e.g. a core.Session) without a separate heap
// allocation per filter. The filter keeps p, which must not change while
// the filter is in use.
func MakeXiFilter(p *XiParams) XiFilter {
	return XiFilter{
		p:      p,
		k:      p.K0,
		q:      p.Q0,
		mu:     p.Mu0,
		sigma2: p.Var0,
	}
}

// Observe folds one slowdown observation xi = t_measured / t_profiled into
// the filter, following Eq. 5 exactly:
//
//	Q(n) = max{Q(0), αQ(n−1) + (1−α)(K(n−1)·y(n−1))²}
//	K(n) = ((1−K(n−1))σ²(n−1) + Q(n)) / ((1−K(n−1))σ²(n−1) + Q(n) + R)
//	y(n) = ξ_obs − µ(n−1)
//	µ(n) = µ(n−1) + K(n)·y(n)
//	σ²(n) = (1−K(n−1))σ²(n−1) + Q(n)
//
// maxCredibleXi bounds admissible slowdown observations. A measured
// slowdown of a million means a broken clock, not a slow machine; admitting
// it would overflow the squared-innovation update and poison the filter.
const maxCredibleXi = 1e6

// Non-finite, non-positive, or absurdly large observations are ignored: a
// crashed or skipped inference carries no timing information, and admitting
// NaN would poison every subsequent prediction.
func (f *XiFilter) Observe(xi float64) {
	if math.IsNaN(xi) || math.IsInf(xi, 0) || xi <= 0 || xi > maxCredibleXi {
		return
	}
	kPrev := f.k
	ky := kPrev * f.y
	f.q = math.Max(f.p.Q0, f.p.Alpha*f.q+(1-f.p.Alpha)*ky*ky)

	prior := (1-kPrev)*f.sigma2 + f.q
	f.k = prior / (prior + f.p.R)

	f.y = xi - f.mu
	f.mu += f.k * f.y
	f.sigma2 = prior
	f.n++
}

// Mean returns the posterior mean µ(n) of ξ.
func (f *XiFilter) Mean() float64 { return f.mu }

// Var returns the posterior variance σ²(n) of ξ. The controller reads this
// as a volatility signal: high variance demotes long-latency configurations
// because their deadline-completion probability collapses first.
func (f *XiFilter) Var() float64 { return f.sigma2 }

// Std returns the posterior standard deviation of ξ.
func (f *XiFilter) Std() float64 { return math.Sqrt(f.sigma2) }

// PredictiveVar returns the variance of the *next observation* of ξ: the
// posterior variance of the mean, plus the process noise the state will
// accumulate before that observation, plus the measurement noise R. The
// controller's deadline probabilities (Eq. 6) are statements about the next
// input's realized slowdown, not about the mean, so using the posterior
// alone would systematically under-margin every decision.
func (f *XiFilter) PredictiveVar() float64 { return f.sigma2 + f.q + f.p.R }

// PredictiveStd returns the square root of PredictiveVar.
func (f *XiFilter) PredictiveStd() float64 { return math.Sqrt(f.PredictiveVar()) }

// Gain returns the current Kalman gain, exposed for tests and introspection.
func (f *XiFilter) Gain() float64 { return f.k }

// ProcessNoise returns the current adaptive process noise Q(n).
func (f *XiFilter) ProcessNoise() float64 { return f.q }

// N returns the number of observations folded in.
func (f *XiFilter) N() int { return f.n }

// Reset restores the filter to its initial state, used when the deployment
// switches to a different profile table (e.g. platform migration).
func (f *XiFilter) Reset() {
	f.k = f.p.K0
	f.q = f.p.Q0
	f.y = 0
	f.mu = f.p.Mu0
	f.sigma2 = f.p.Var0
	f.n = 0
}

// XiState is the complete mutable state of an XiFilter — everything the
// recursion of Eq. 5 carries from one observation to the next, exported so
// a serving layer can snapshot a filter, ship it to another process, and
// resume it there with bit-identical behaviour (see MakeXiFilterFromState).
// The parameters are deliberately not part of the state: they belong to the
// engine configuration both endpoints already share.
type XiState struct {
	// K is the Kalman gain K(n), Q the adaptive process noise Q(n), Y the
	// last innovation y(n), Mu the posterior mean µ(n), Sigma2 the posterior
	// variance σ²(n).
	K, Q, Y, Mu, Sigma2 float64
	// N counts the observations folded in so far.
	N int64
}

// State captures the filter's mutable state. Restoring it with
// MakeXiFilterFromState under the same parameters yields a filter whose
// every future output is bit-identical to this one's.
func (f *XiFilter) State() XiState {
	return XiState{K: f.k, Q: f.q, Y: f.y, Mu: f.mu, Sigma2: f.sigma2, N: int64(f.n)}
}

// MakeXiFilterFromState rebuilds a filter from a captured state, by value
// for embedding. It is the inverse of State: the restored filter and the
// original produce bit-identical observation sequences from here on. Like
// MakeXiFilter, it keeps p.
func MakeXiFilterFromState(p *XiParams, st XiState) XiFilter {
	return XiFilter{
		p:      p,
		k:      st.K,
		q:      st.Q,
		y:      st.Y,
		mu:     st.Mu,
		sigma2: st.Sigma2,
		n:      int(st.N),
	}
}

// IdleParams collects the Eq. 8 constants. M0 is the initial process
// variance M(0), S the process noise, V the measurement noise, Phi0 the
// initial idle-power ratio estimate.
type IdleParams struct {
	M0, S, V, Phi0 float64
}

// DefaultIdleParams returns the paper's initialization:
// M(0)=0.01, S=0.0001, V=0.001. φ(0) defaults to 0.3, a typical idle-to-cap
// ratio on the platforms profiled in §2.
func DefaultIdleParams() IdleParams {
	return IdleParams{M0: 0.01, S: 0.0001, V: 0.001, Phi0: 0.3}
}

// IdlePowerFilter tracks φ(n), the predicted ratio of DNN-idle power to the
// inference power cap (Eq. 8). Unlike XiFilter its gain schedule is the
// classic fixed-noise recursion — idle power drifts slowly, so adaptivity
// buys nothing there.
// Like XiFilter it shares its constants through a read-only pointer.
type IdlePowerFilter struct {
	p   *IdleParams
	m   float64 // process variance M(n)
	phi float64 // posterior estimate φ(n)
	n   int
}

// NewIdlePowerFilter constructs the filter with its own copy of the
// parameters.
func NewIdlePowerFilter(p IdleParams) *IdlePowerFilter {
	f := MakeIdlePowerFilter(&p)
	return &f
}

// MakeIdlePowerFilter returns an initialized filter by value, the embedding
// companion of MakeXiFilter; like it, the filter keeps p.
func MakeIdlePowerFilter(p *IdleParams) IdlePowerFilter {
	return IdlePowerFilter{p: p, m: p.M0, phi: p.Phi0}
}

// Observe folds one measurement of p_idle / p_cap into the estimate:
//
//	W(n) = (M(n−1)+S) / (M(n−1)+S+V)
//	M(n) = (1−W(n))(M(n−1)+S)
//	φ(n) = φ(n−1) + W(n)·(obs − φ(n−1))
func (f *IdlePowerFilter) Observe(ratio float64) {
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 0 {
		return
	}
	w := (f.m + f.p.S) / (f.m + f.p.S + f.p.V)
	f.m = (1 - w) * (f.m + f.p.S)
	f.phi += w * (ratio - f.phi)
	f.n++
}

// Ratio returns the posterior idle-power ratio φ(n).
func (f *IdlePowerFilter) Ratio() float64 { return f.phi }

// N returns the number of observations folded in.
func (f *IdlePowerFilter) N() int { return f.n }

// Reset restores the initial state.
func (f *IdlePowerFilter) Reset() {
	f.m = f.p.M0
	f.phi = f.p.Phi0
	f.n = 0
}

// IdleState is the complete mutable state of an IdlePowerFilter, the Eq. 8
// companion of XiState: M the process variance M(n), Phi the posterior
// estimate φ(n), N the observation count.
type IdleState struct {
	M, Phi float64
	N      int64
}

// State captures the filter's mutable state for snapshot/restore.
func (f *IdlePowerFilter) State() IdleState {
	return IdleState{M: f.m, Phi: f.phi, N: int64(f.n)}
}

// MakeIdlePowerFilterFromState rebuilds a filter from a captured state, by
// value for embedding; the inverse of State.
func MakeIdlePowerFilterFromState(p *IdleParams, st IdleState) IdlePowerFilter {
	return IdlePowerFilter{p: p, m: st.M, phi: st.Phi, n: int(st.N)}
}
