// Package kalman implements the two estimators at the heart of the ALERT
// runtime (Wan et al., USENIX ATC 2020):
//
//   - XiState: the adaptive-noise scalar Kalman filter of Eq. 5 that tracks
//     the global slowdown factor ξ, the single random variable relating the
//     current execution environment to the offline profiling environment.
//     Its novelty (relative to textbook filters) is twofold: the process
//     noise Q adapts to recent innovation magnitude with a forgetting factor
//     (following Akhlaghi et al. 2017), and the posterior *variance* is a
//     first-class output used by the controller as a volatility signal, not
//     just an internal quantity.
//
//   - IdleState: the fixed-gain filter of Eq. 8 that tracks φ, the
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
// inflates past 0.1 within two or three surprise observations.
// TestPaperLiteralParamsDegenerate runs the filter on the stated Q(0)=0.1.
func DefaultXiParams() XiParams {
	return XiParams{K0: 0.5, R: 0.001, Q0: 1e-4, Mu0: 1, Var0: 0.1, Alpha: 0.3}
}

// XiState tracks the global slowdown factor. It is deliberately scalar:
// ALERT's key design bet is that one number (plus its variance) suffices to
// re-rank the entire DNN × power-cap configuration space.
//
// It is the filter's complete mutable state — the five values the
// recursion of Eq. 5 carries from one observation to the next — and nothing
// else: the constants are passed to the methods that read them, so every
// filter of one configuration (every stream of a core.Engine) shares one
// XiParams, and a state copied to another process under the same
// parameters resumes with bit-identical behaviour.
type XiState struct {
	// K is the Kalman gain K(n), Q the adaptive process noise Q(n), Y the
	// last innovation y(n), Mu the posterior mean µ(n), Sigma2 the posterior
	// variance σ²(n).
	K, Q, Y, Mu, Sigma2 float64
}

// MakeXiState returns the filter's initial state under p.
func MakeXiState(p *XiParams) XiState {
	return XiState{K: p.K0, Q: p.Q0, Mu: p.Mu0, Sigma2: p.Var0}
}

// maxCredibleXi bounds admissible slowdown observations. A measured
// slowdown of a million means a broken clock, not a slow machine; admitting
// it would overflow the squared-innovation update and poison the filter.
const maxCredibleXi = 1e6

// Observe folds one slowdown observation xi = t_measured / t_profiled into
// the filter, following Eq. 5 exactly:
//
//	Q(n) = max{Q(0), αQ(n−1) + (1−α)(K(n−1)·y(n−1))²}
//	K(n) = ((1−K(n−1))σ²(n−1) + Q(n)) / ((1−K(n−1))σ²(n−1) + Q(n) + R)
//	y(n) = ξ_obs − µ(n−1)
//	µ(n) = µ(n−1) + K(n)·y(n)
//	σ²(n) = (1−K(n−1))σ²(n−1) + Q(n)
//
// Non-finite, non-positive, or absurdly large observations are ignored: a
// crashed or skipped inference carries no timing information, and admitting
// NaN would poison every subsequent prediction.
func (f *XiState) Observe(p *XiParams, xi float64) {
	if math.IsNaN(xi) || math.IsInf(xi, 0) || xi <= 0 || xi > maxCredibleXi {
		return
	}
	kPrev := f.K
	ky := kPrev * f.Y
	f.Q = math.Max(p.Q0, p.Alpha*f.Q+(1-p.Alpha)*ky*ky)

	prior := (1-kPrev)*f.Sigma2 + f.Q
	f.K = prior / (prior + p.R)

	f.Y = xi - f.Mu
	f.Mu += f.K * f.Y
	f.Sigma2 = prior
}

// Std returns the posterior standard deviation of ξ. The controller reads
// the variance as a volatility signal: high variance demotes long-latency
// configurations because their deadline-completion probability collapses
// first.
func (f *XiState) Std() float64 { return math.Sqrt(f.Sigma2) }

// PredictiveVar returns the variance of the *next observation* of ξ: the
// posterior variance of the mean, plus the process noise the state will
// accumulate before that observation, plus the measurement noise R. The
// controller's deadline probabilities (Eq. 6) are statements about the next
// input's realized slowdown, not about the mean, so using the posterior
// alone would systematically under-margin every decision.
func (f *XiState) PredictiveVar(p *XiParams) float64 { return f.Sigma2 + f.Q + p.R }

// PredictiveStd returns the square root of PredictiveVar.
func (f *XiState) PredictiveStd(p *XiParams) float64 { return math.Sqrt(f.PredictiveVar(p)) }

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

// IdleState tracks φ(n), the predicted ratio of DNN-idle power to the
// inference power cap (Eq. 8): M the process variance M(n) and Phi the
// posterior estimate φ(n). Unlike XiState its gain schedule is the classic
// fixed-noise recursion — idle power drifts slowly, so adaptivity buys
// nothing there. Like XiState it is the filter's whole mutable state, the
// two values Eq. 8 carries forward and nothing else; the constants are
// passed in.
type IdleState struct {
	M, Phi float64
}

// MakeIdleState returns the filter's initial state under p.
func MakeIdleState(p *IdleParams) IdleState {
	return IdleState{M: p.M0, Phi: p.Phi0}
}

// Observe folds one measurement of p_idle / p_cap into the estimate:
//
//	W(n) = (M(n−1)+S) / (M(n−1)+S+V)
//	M(n) = (1−W(n))(M(n−1)+S)
//	φ(n) = φ(n−1) + W(n)·(obs − φ(n−1))
func (f *IdleState) Observe(p *IdleParams, ratio float64) {
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 0 {
		return
	}
	w := (f.M + p.S) / (f.M + p.S + p.V)
	f.M = (1 - w) * (f.M + p.S)
	f.Phi += w * (ratio - f.Phi)
}
