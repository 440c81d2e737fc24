package kalman

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/alert-project/alert/internal/mathx"
)

func TestXiFilterConvergesToConstant(t *testing.T) {
	p := DefaultXiParams()
	f := MakeXiState(&p)
	for i := 0; i < 200; i++ {
		f.Observe(&p, 1.4)
	}
	if math.Abs(f.Mu-1.4) > 1e-6 {
		t.Errorf("mean = %g, want 1.4", f.Mu)
	}
	if f.Std() > 0.05 {
		t.Errorf("std = %g, should be small for constant input", f.Std())
	}
}

func TestXiFilterTracksStep(t *testing.T) {
	p := DefaultXiParams()
	f := MakeXiState(&p)
	for i := 0; i < 100; i++ {
		f.Observe(&p, 1.0)
	}
	quietStd := f.Std()
	// Step to 1.5: the mean must lock within a handful of observations and
	// the variance must spike on the way (the volatility signal of §3.4).
	var maxStd float64
	for i := 0; i < 10; i++ {
		f.Observe(&p, 1.5)
		if f.Std() > maxStd {
			maxStd = f.Std()
		}
	}
	if math.Abs(f.Mu-1.5) > 0.05 {
		t.Errorf("mean after step = %g, want ~1.5", f.Mu)
	}
	if maxStd < 3*quietStd {
		t.Errorf("variance did not spike on step: quiet %g, max %g", quietStd, maxStd)
	}
	// And decay again once the new level is stable.
	for i := 0; i < 100; i++ {
		f.Observe(&p, 1.5)
	}
	if f.Std() > 2*quietStd+1e-3 {
		t.Errorf("variance did not re-converge: %g vs quiet %g", f.Std(), quietStd)
	}
}

func TestXiFilterNoisyEstimate(t *testing.T) {
	rng := mathx.NewRand(5)
	p := DefaultXiParams()
	f := MakeXiState(&p)
	for i := 0; i < 2000; i++ {
		f.Observe(&p, 1.2+0.05*rng.NormFloat64())
	}
	if math.Abs(f.Mu-1.2) > 0.05 {
		t.Errorf("noisy mean = %g, want ~1.2", f.Mu)
	}
	// Predictive std must be on the order of the observation noise: large
	// enough to cover it, not wildly above.
	if f.PredictiveStd(&p) < 0.02 || f.PredictiveStd(&p) > 0.25 {
		t.Errorf("predictive std = %g, want around 0.05", f.PredictiveStd(&p))
	}
}

func TestXiFilterRejectsGarbage(t *testing.T) {
	p := DefaultXiParams()
	f := MakeXiState(&p)
	f.Observe(&p, 1.3)
	want := f
	for _, xi := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2, 0, 2 * maxCredibleXi} {
		f.Observe(&p, xi)
		if f != want {
			t.Errorf("garbage observation %g changed filter state: %+v, want %+v", xi, f, want)
		}
	}
}

func TestXiFilterInvariants(t *testing.T) {
	f := func(obs []float64) bool {
		p := DefaultXiParams()
		flt := MakeXiState(&p)
		for _, o := range obs {
			flt.Observe(&p, math.Mod(math.Abs(o), 1e5)+0.01) // positive, credible
			if math.IsNaN(flt.Mu) || math.IsInf(flt.Mu, 0) {
				return false
			}
			if flt.Sigma2 <= 0 || math.IsNaN(flt.Sigma2) {
				return false
			}
			if flt.K < 0 || flt.K > 1 {
				return false
			}
			if flt.Q < p.Q0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXiFilterMeanStaysInObservationEnvelope(t *testing.T) {
	f := func(obs []float64) bool {
		p := DefaultXiParams()
		flt := MakeXiState(&p)
		lo, hi := flt.Mu, flt.Mu
		for _, o := range obs {
			x := math.Mod(math.Abs(o), 10) + 0.01
			flt.Observe(&p, x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			// The posterior mean is a convex combination of its initial
			// value and the observations, so it must stay inside the
			// envelope spanned by them.
			if flt.Mu < lo-1e-9 || flt.Mu > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperLiteralParamsDegenerate(t *testing.T) {
	// Documents why DefaultXiParams lowers Q0: with the literal constants
	// the posterior std is pinned near sqrt(Q0) ~= 0.32 and the gain near
	// 1 no matter how quiet the input is.
	p := DefaultXiParams()
	p.Q0 = 0.1 // the constants exactly as §3.4 states them
	f := MakeXiState(&p)
	for i := 0; i < 500; i++ {
		f.Observe(&p, 1.0)
	}
	if f.Std() < 0.25 {
		t.Errorf("expected the literal-constant filter to stay pinned at high variance, got std %g", f.Std())
	}
	if f.K < 0.95 {
		t.Errorf("expected saturated gain, got %g", f.K)
	}
}

func TestPredictiveVarDominatesPosterior(t *testing.T) {
	p := DefaultXiParams()
	f := MakeXiState(&p)
	rng := mathx.NewRand(9)
	for i := 0; i < 300; i++ {
		f.Observe(&p, 1+0.1*rng.NormFloat64())
		if f.PredictiveVar(&p) < f.Sigma2 {
			t.Fatal("predictive variance below posterior variance")
		}
	}
}

func TestIdlePowerFilterConverges(t *testing.T) {
	p := DefaultIdleParams()
	f := MakeIdleState(&p)
	for i := 0; i < 300; i++ {
		f.Observe(&p, 0.22)
	}
	if math.Abs(f.Phi-0.22) > 0.01 {
		t.Errorf("ratio = %g, want 0.22", f.Phi)
	}
}

func TestIdlePowerFilterTracksDrift(t *testing.T) {
	p := DefaultIdleParams()
	f := MakeIdleState(&p)
	for i := 0; i < 100; i++ {
		f.Observe(&p, 0.2)
	}
	for i := 0; i < 200; i++ {
		f.Observe(&p, 0.5) // co-runner arrives, idle draw rises
	}
	if math.Abs(f.Phi-0.5) > 0.05 {
		t.Errorf("ratio after drift = %g, want ~0.5", f.Phi)
	}
}

func TestIdlePowerFilterRejectsGarbage(t *testing.T) {
	p := DefaultIdleParams()
	f := MakeIdleState(&p)
	f.Observe(&p, 0.3)
	want := f
	for _, r := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
		f.Observe(&p, r)
		if f != want {
			t.Errorf("garbage observation %g changed idle filter state: %+v, want %+v", r, f, want)
		}
	}
}
