// Package mathx provides the small numeric toolkit shared by the ALERT
// runtime and its simulation substrates: Gaussian distribution functions,
// a running mean, percentiles, and seeded random variate generators.
//
// Everything in this package is purely computational and allocation-free on
// the hot paths; the ALERT controller calls into it once per candidate
// configuration per input, so these routines must stay cheap.
package mathx

import "math"

// Sqrt2 is cached because Phi is called in the controller's innermost loop.
var sqrt2 = math.Sqrt(2)

// Phi returns the standard normal cumulative distribution function Φ(z).
func Phi(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/sqrt2))
}

// NormCDF returns Pr[X <= x] for X ~ N(mu, sigma^2).
//
// A degenerate distribution (sigma <= 0) collapses to a step function, which
// is exactly the behaviour the controller wants when the Kalman variance has
// converged to zero: the deadline is either surely met or surely missed.
func NormCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x >= mu {
			return 1
		}
		return 0
	}
	return Phi((x - mu) / sigma)
}

// PhiInv returns the inverse of the standard normal CDF (the quantile
// function) using the Acklam rational approximation, accurate to about
// 1.15e-9 over the open interval (0, 1). Inputs at or beyond the boundary
// saturate to +/-Inf.
func PhiInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	const phigh = 1 - plow

	var q, r, x float64
	switch {
	case p < plow:
		q = math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q = p - 0.5
		r = q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q = math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step sharpens the approximation near the tails.
	e := Phi(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// NormQuantile returns the q-th quantile of N(mu, sigma^2).
// It is the inverse of NormCDF and backs the Prth energy estimate (Eq. 12).
func NormQuantile(p, mu, sigma float64) float64 {
	return NormQuantileZ(PhiInv(p), mu, sigma)
}

// NormQuantileZ is NormQuantile with the standard-normal quantile
// z = PhiInv(p) already computed, so a caller that knows p in advance pays
// for PhiInv once. Both evaluate the same expression, so they agree to the
// bit.
func NormQuantileZ(z, mu, sigma float64) float64 {
	if sigma <= 0 {
		return mu
	}
	return mu + sigma*z
}
