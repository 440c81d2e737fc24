package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func sample(lat, goal, en, q float64) Sample {
	return Sample{
		Latency: lat, Goal: goal, Energy: en, Quality: q,
		LatencyViolated: lat > goal,
	}
}

func TestRecordAggregates(t *testing.T) {
	r := NewRecord("test")
	r.Add(sample(0.1, 0.2, 2, 0.9))
	r.Add(sample(0.3, 0.2, 4, 0.5))
	if r.N() != 2 {
		t.Fatalf("n = %d", r.N())
	}
	if math.Abs(r.AvgLatency()-0.2) > 1e-12 {
		t.Errorf("avg latency %g", r.AvgLatency())
	}
	if math.Abs(r.AvgEnergy()-3) > 1e-12 {
		t.Errorf("avg energy %g", r.AvgEnergy())
	}
	if math.Abs(r.AvgQuality()-0.7) > 1e-12 {
		t.Errorf("avg quality %g", r.AvgQuality())
	}
	if math.Abs(r.AvgError()-0.3) > 1e-12 {
		t.Errorf("avg error %g", r.AvgError())
	}
	if r.ViolationRate() != 0.5 || r.DeadlineMissRate() != 0.5 {
		t.Errorf("violation rate %g", r.ViolationRate())
	}
}

func TestSettingViolatedTenPercentRule(t *testing.T) {
	r := NewRecord("x")
	for i := 0; i < 90; i++ {
		r.Add(sample(0.1, 0.2, 1, 0.9))
	}
	for i := 0; i < 10; i++ {
		r.Add(sample(0.3, 0.2, 1, 0.9))
	}
	// Exactly 10% is NOT a violation (the rule is "more than 10%").
	if r.SettingViolated() {
		t.Error("10% should not trip the rule")
	}
	r.Add(sample(0.3, 0.2, 1, 0.9))
	if !r.SettingViolated() {
		t.Error("10.9% should trip the rule")
	}
}

func TestSampleViolatedAnyDimension(t *testing.T) {
	cases := []Sample{
		{LatencyViolated: true},
		{AccuracyViolated: true},
		{EnergyViolated: true},
	}
	for i, s := range cases {
		if !s.Violated() {
			t.Errorf("case %d should be violated", i)
		}
	}
	if (Sample{}).Violated() {
		t.Error("clean sample misreported")
	}
}

func TestSeriesAccessors(t *testing.T) {
	r := NewRecord("x")
	r.Add(Sample{Latency: 1, Energy: 2, Quality: 0.5, TrueXi: 1.1})
	r.Add(Sample{Latency: 3, Energy: 4, Quality: 0.7, TrueXi: 1.3})
	if got := r.Latencies(); got[0] != 1 || got[1] != 3 {
		t.Error("latencies")
	}
	if got := r.Qualities(); got[0] != 0.5 || got[1] != 0.7 {
		t.Error("qualities")
	}
}

func TestNormalizeExcludesViolatedSettings(t *testing.T) {
	scheme := []SettingResult{
		{Scheme: "S", AvgEnergy: 2, Violated: false},
		{Scheme: "S", AvgEnergy: 99, Violated: true},
		{Scheme: "S", AvgEnergy: 3, Violated: false},
	}
	static := []SettingResult{
		{AvgEnergy: 4}, {AvgEnergy: 4}, {AvgEnergy: 6},
	}
	cell := Normalize(scheme, static, true)
	if cell.ViolatedSettings != 1 || cell.Settings != 3 {
		t.Fatalf("violated/settings = %d/%d", cell.ViolatedSettings, cell.Settings)
	}
	want := (2.0/4 + 3.0/6) / 2
	if math.Abs(cell.NormValue-want) > 1e-12 {
		t.Errorf("norm = %g, want %g", cell.NormValue, want)
	}
	if cell.Scheme != "S" {
		t.Error("scheme label lost")
	}
}

func TestNormalizeErrorMetric(t *testing.T) {
	scheme := []SettingResult{{AvgError: 0.1}}
	static := []SettingResult{{AvgError: 0.2}}
	cell := Normalize(scheme, static, false)
	if math.Abs(cell.NormValue-0.5) > 1e-12 {
		t.Errorf("norm = %g", cell.NormValue)
	}
}

func TestNormalizeAllViolatedIsNaN(t *testing.T) {
	scheme := []SettingResult{{AvgEnergy: 2, Violated: true}}
	static := []SettingResult{{AvgEnergy: 4}}
	if cell := Normalize(scheme, static, true); !math.IsNaN(cell.NormValue) {
		t.Errorf("norm = %g, want NaN", cell.NormValue)
	}
}

func TestNormalizeMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched grids")
		}
	}()
	Normalize([]SettingResult{{}}, nil, true)
}

func TestRecordRatesProperty(t *testing.T) {
	f := func(lats []float64) bool {
		r := NewRecord("p")
		for _, l := range lats {
			l = math.Abs(l)
			r.Add(sample(l, 0.5, 1, 0.9))
		}
		vr := r.ViolationRate()
		return vr >= 0 && vr <= 1 && r.DeadlineMissRate() == vr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
