package mathx

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Drawing through a child must not perturb the parent's stream beyond
	// the single Int63 the split consumes.
	a := NewRand(7)
	child := a.Split()
	next := a.Float64()

	b := NewRand(7)
	_ = b.Int63()
	if next != b.Float64() {
		t.Error("Split consumed more than one parent draw")
	}
	_ = child.Float64()
}

func TestLogNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	mu, sigma := 0.0, 0.1
	logs := make([]float64, n)
	var s OnlineStats
	for i := range logs {
		logs[i] = math.Log(r.LogNormal(mu, sigma))
		s.Add(logs[i])
	}
	if math.Abs(s.Mean()-mu) > 0.002 {
		t.Errorf("log-mean %g", s.Mean())
	}
	var ss float64
	for _, x := range logs {
		ss += (x - s.Mean()) * (x - s.Mean())
	}
	if std := math.Sqrt(ss / (n - 1)); math.Abs(std-sigma) > 0.002 {
		t.Errorf("log-std %g", std)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(1.5, 0.5, 1.0, 2.0)
		if x < 1.0 || x > 2.0 {
			t.Fatalf("TruncNormal out of bounds: %g", x)
		}
	}
	// Impossible interval falls back to clamped mean.
	if x := r.TruncNormal(0, 0.001, 10, 11); x != 10 {
		t.Errorf("fallback = %g, want 10", x)
	}
}

func TestUniformBounds(t *testing.T) {
	r := NewRand(17)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(-2, 3)
		if x < -2 || x > 3 {
			t.Fatalf("Uniform out of bounds: %g", x)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRand(19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %g", rate)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(23)
	var s OnlineStats
	for i := 0; i < 100000; i++ {
		s.Add(r.Exponential(4))
	}
	if math.Abs(s.Mean()-4) > 0.1 {
		t.Errorf("Exponential mean = %g, want 4", s.Mean())
	}
}
