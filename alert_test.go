package alert

import (
	"math"
	"testing"
)

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(CPU1(), nil, Options{}); err == nil {
		t.Error("empty candidate set should fail")
	}
	if _, err := NewScheduler(Embedded(), ImageCandidates(), Options{}); err == nil {
		t.Error("image candidates should OOM on the embedded board")
	}
	s, err := NewScheduler(CPU1(), ImageCandidates(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Models()) != len(ImageCandidates()) {
		t.Error("model set lost")
	}
	if len(s.PowerCaps()) == 0 {
		t.Error("cap ladder missing")
	}
}

func TestDecideObserveLoop(t *testing.T) {
	s, err := NewScheduler(CPU1(), ImageCandidates(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.92}
	for i := 0; i < 50; i++ {
		d, est := s.Decide(spec)
		if d.Model < 0 || d.Model >= len(s.Models()) {
			t.Fatal("invalid model index")
		}
		if d.CapW != s.PowerCaps()[d.Cap] {
			t.Fatal("CapW inconsistent with Cap index")
		}
		if est.Quality <= 0 || est.Quality > 1 {
			t.Fatalf("estimate quality %g", est.Quality)
		}
		// Report a world running 1.2x slower than profiled.
		m := s.Models()[d.Model]
		nominal := m.RefLatency / CPU1().Speed(d.CapW)
		if d.PlannedStop > 0 && d.PlannedStop < nominal*1.2 {
			nominal = d.PlannedStop / 1.2 // executed portion only
		}
		s.Observe(Feedback{
			Decision:       d,
			Latency:        1.2 * nominal,
			CompletedStage: len(m.Stages) - 1,
			IdlePowerW:     6,
		})
	}
	mu, sigma := s.XiEstimate()
	if math.Abs(mu-1.2) > 0.1 {
		t.Errorf("xi estimate %g, want ~1.2", mu)
	}
	if sigma <= 0 {
		t.Error("sigma must be positive")
	}
	if r := s.IdlePowerRatio(); r <= 0 || r >= 1 {
		t.Errorf("idle ratio %g", r)
	}
}

func TestObserveIgnoresBadFeedback(t *testing.T) {
	s, _ := NewScheduler(CPU1(), ImageCandidates(), Options{})
	mu0, _ := s.XiEstimate()
	s.Observe(Feedback{Latency: 0})
	s.Observe(Feedback{Latency: -3})
	if mu, _ := s.XiEstimate(); mu != mu0 {
		t.Error("bad feedback changed the estimate")
	}
}

func TestObserveWithoutIdlePowerKeepsPhi(t *testing.T) {
	s, _ := NewScheduler(CPU1(), ImageCandidates(), Options{})
	phi := s.IdlePowerRatio()
	d, _ := s.Decide(Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
	s.Observe(Feedback{Decision: d, Latency: 0.05})
	if s.IdlePowerRatio() != phi {
		t.Error("phi moved without an idle-power measurement")
	}
}

func TestSimulateBasic(t *testing.T) {
	rep, err := Simulate(SimConfig{
		Spec:   Spec{Objective: MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.92},
		Inputs: 200,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inputs != 200 {
		t.Fatalf("inputs = %d", rep.Inputs)
	}
	if rep.AvgLatency <= 0 || rep.AvgEnergy <= 0 {
		t.Error("degenerate report")
	}
	if rep.AvgQuality < 0.85 {
		t.Errorf("quality %g suspiciously low for a loose setting", rep.AvgQuality)
	}
	if rep.ViolationRate > 0.1 {
		t.Errorf("violations %g on a feasible setting", rep.ViolationRate)
	}
}

func TestSimulateRequiresDeadline(t *testing.T) {
	if _, err := Simulate(SimConfig{}); err == nil {
		t.Error("missing deadline should fail")
	}
}

func TestSimulateTraceAndBursts(t *testing.T) {
	var contended, total int
	_, err := Simulate(SimConfig{
		Spec:   Spec{Objective: MaximizeAccuracy, Deadline: 0.2, EnergyBudget: 9},
		Bursts: []Burst{{Start: 20, End: 60, Scenario: MemoryContention}},
		Inputs: 100,
		Seed:   5,
		Trace: func(s TraceSample) {
			total++
			if s.Contention {
				contended++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("trace saw %d inputs", total)
	}
	if contended < 30 || contended > 50 {
		t.Errorf("contended inputs = %d, want ~40 (burst window)", contended)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{
		Spec:       Spec{Objective: MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.92},
		Contention: MemoryContention,
		Inputs:     150,
		Seed:       11,
	}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(cfg)
	if *a != *b {
		t.Error("same-seed simulations diverged")
	}
}

func TestAlertStarOptionWorks(t *testing.T) {
	cfg := SimConfig{
		Spec:       Spec{Objective: MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.92},
		Contention: MemoryContention,
		Inputs:     300,
		Seed:       13,
	}
	full, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	star, err := simulate(cfg, Options{DisableVariance: true})
	if err != nil {
		t.Fatal(err)
	}
	// The mean-only ablation must violate at least as often (Fig. 10).
	if star.ViolationRate < full.ViolationRate-0.01 {
		t.Errorf("ALERT* violations %g below ALERT %g", star.ViolationRate, full.ViolationRate)
	}
}

func TestPlatformsExported(t *testing.T) {
	if len(Platforms()) != 4 {
		t.Error("expected the four Table 1 platforms")
	}
	if ImageNetZoo(1)[0] == nil || len(ImageNetZoo(1)) != 42 {
		t.Error("zoo export broken")
	}
	if PerplexityFromQuality(0.7) <= 0 {
		t.Error("perplexity export broken")
	}
}
