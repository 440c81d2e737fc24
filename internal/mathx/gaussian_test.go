package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPhiKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := Phi(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Phi(%g) = %.12f, want %.12f", c.z, got, c.want)
		}
	}
}

func TestPhiInvRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.9998) + 1e-4 // p in (1e-4, ~0.9999)
		z := PhiInv(p)
		return math.Abs(Phi(z)-p) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhiInvBoundaries(t *testing.T) {
	if !math.IsInf(PhiInv(0), -1) {
		t.Error("PhiInv(0) should be -Inf")
	}
	if !math.IsInf(PhiInv(1), 1) {
		t.Error("PhiInv(1) should be +Inf")
	}
	if got := PhiInv(0.5); math.Abs(got) > 1e-9 {
		t.Errorf("PhiInv(0.5) = %g, want 0", got)
	}
}

func TestNormCDFDegenerate(t *testing.T) {
	if got := NormCDF(2, 1, 0); got != 1 {
		t.Errorf("degenerate CDF above mean = %g, want 1", got)
	}
	if got := NormCDF(0.5, 1, 0); got != 0 {
		t.Errorf("degenerate CDF below mean = %g, want 0", got)
	}
	if got := NormCDF(1, 1, 0); got != 1 {
		t.Errorf("degenerate CDF at mean = %g, want 1", got)
	}
}

func TestNormCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		return NormCDF(lo, 0.3, 0.7) <= NormCDF(hi, 0.3, 0.7)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormQuantileInvertsNormCDF(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
		x := NormQuantile(p, 2.5, 0.4)
		if got := NormCDF(x, 2.5, 0.4); math.Abs(got-p) > 1e-8 {
			t.Errorf("NormCDF(NormQuantile(%g)) = %g", p, got)
		}
	}
	if got := NormQuantile(0.9, 3, 0); got != 3 {
		t.Errorf("degenerate quantile = %g, want mean", got)
	}
}
