package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOnlineStatsMatchesDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var s OnlineStats
	for _, x := range xs {
		s.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))

	if math.Abs(s.Mean()-mean) > 1e-12 {
		t.Errorf("mean %g want %g", s.Mean(), mean)
	}
	if s.n != len(xs) {
		t.Errorf("n = %d, want %d", s.n, len(xs))
	}
}

func TestOnlineStatsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var s OnlineStats
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			lo, hi = math.Min(lo, x), math.Max(hi, x)
			s.Add(x)
		}
		if s.n == 0 {
			return s.Mean() == 0
		}
		// The mean must lie within [min, max].
		return s.Mean() >= lo-1e-9 && s.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// The input must not be reordered.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestBoxStats(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	b := Box(xs)
	if b.Median != 50 || b.P25 != 25 || b.P75 != 75 || b.Min != 0 || b.Max != 100 {
		t.Errorf("box = %+v", b)
	}
	if math.Abs(b.Mean-50) > 1e-9 || b.N != 101 {
		t.Errorf("mean/n = %g/%d", b.Mean, b.N)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("HM(1,1,1) = %g", got)
	}
	// HM(1, 2) = 2/(1 + 1/2) = 4/3
	if got := HarmonicMean([]float64{1, 2}); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("HM(1,2) = %g", got)
	}
	if !math.IsNaN(HarmonicMean([]float64{1, 0})) {
		t.Error("HM with zero should be NaN")
	}
	if !math.IsNaN(HarmonicMean(nil)) {
		t.Error("HM of empty should be NaN")
	}
}

func TestHarmonicMeanLeqArithmetic(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-6 && x < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp misbehaves")
	}
}
