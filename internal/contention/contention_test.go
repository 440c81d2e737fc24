package contention

import (
	"testing"

	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
)

func TestDefaultSlowdownRange(t *testing.T) {
	src := NewSource(Default, platform.CPU, 1)
	for i := 0; i < 5000; i++ {
		e := src.Next()
		if e.Slowdown < 1.0 || e.Slowdown > 1.06 {
			t.Fatalf("Default slowdown %g outside Fig. 11's [1.00, 1.06]", e.Slowdown)
		}
		if e.ExtraPower != 0 {
			t.Fatal("Default must not add co-runner power")
		}
	}
}

func TestScenarioCalibration(t *testing.T) {
	// Observed slowdowns while the co-runner is active must stay inside
	// the Fig. 11 support and average near the calibrated mean.
	cases := []struct {
		sc       Scenario
		lo, hi   float64
		meanLo   float64
		meanHi   float64
		extraPwr float64
	}{
		{Compute, 1.10, 1.70, 1.25, 1.5, 9},
		{Memory, 1.10, 1.90, 1.3, 1.65, 7},
	}
	for _, c := range cases {
		src := NewSource(c.sc, platform.CPU, 7)
		var active mathx.OnlineStats
		activeN := 0
		for i := 0; i < 20000; i++ {
			e := src.Next()
			if e.Slowdown == 1 {
				continue // co-runner stopped
			}
			if e.Slowdown < c.lo || e.Slowdown > c.hi {
				t.Fatalf("%v slowdown %g outside [%g, %g]", c.sc, e.Slowdown, c.lo, c.hi)
			}
			if e.ExtraPower != c.extraPwr {
				t.Fatalf("%v extra power %g", c.sc, e.ExtraPower)
			}
			active.Add(e.Slowdown)
			activeN++
		}
		if activeN == 0 {
			t.Fatalf("%v: co-runner never active", c.sc)
		}
		if m := active.Mean(); m < c.meanLo || m > c.meanHi {
			t.Errorf("%v active mean %g outside [%g, %g]", c.sc, m, c.meanLo, c.meanHi)
		}
	}
}

func TestGPUScenariosMilder(t *testing.T) {
	for _, sc := range []Scenario{Compute, Memory} {
		cpu := scenarioParams(sc, platform.CPU)
		gpu := scenarioParams(sc, platform.GPU)
		if gpu.mean >= cpu.mean || gpu.hi >= cpu.hi {
			t.Errorf("%v: GPU contention should be milder than CPU", sc)
		}
	}
}

func TestMarkovTogglesOnAndOff(t *testing.T) {
	src := NewSource(Memory, platform.CPU, 3)
	var on, off int
	for i := 0; i < 5000; i++ {
		if src.Next().Slowdown > 1 {
			on++
		} else {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("expected both phases: on=%d off=%d", on, off)
	}
	// Duty cycle roughly onMean/(onMean+offMean) ~ 54%.
	duty := float64(on) / float64(on+off)
	if duty < 0.3 || duty > 0.8 {
		t.Errorf("duty cycle %g far from calibration", duty)
	}
}

func TestMarkovStartsQuiet(t *testing.T) {
	// Runs begin in the profiled regime: the first input must be
	// uncontended for every seed.
	for seed := int64(0); seed < 50; seed++ {
		src := NewSource(Memory, platform.CPU, seed)
		if e := src.Next(); e.Slowdown != 1 {
			t.Fatalf("seed %d: first input contended", seed)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	a := NewSource(Memory, platform.CPU, 99)
	b := NewSource(Memory, platform.CPU, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed sources diverged")
		}
	}
}

func TestScriptedBurstWindow(t *testing.T) {
	src := NewScripted(platform.CPU, 5, Burst{Start: 10, End: 20, Scenario: Memory})
	for i := 0; i < 30; i++ {
		e := src.Next()
		inBurst := i >= 10 && i < 20
		if inBurst && (!e.Active || e.Slowdown < 1.10) {
			t.Errorf("input %d: expected active memory contention, got %+v", i, e)
		}
		if !inBurst && e.Slowdown > 1.06 {
			t.Errorf("input %d: expected quiet, got slowdown %g", i, e.Slowdown)
		}
	}
}

func TestScriptedMultipleBursts(t *testing.T) {
	src := NewScripted(platform.CPU, 5,
		Burst{Start: 5, End: 10, Scenario: Compute},
		Burst{Start: 15, End: 20, Scenario: Memory})
	var activeCount int
	for i := 0; i < 25; i++ {
		if src.Next().Active {
			activeCount++
		}
	}
	if activeCount != 10 {
		t.Errorf("active inputs = %d, want 10", activeCount)
	}
}

func TestSteadySource(t *testing.T) {
	var s Steady
	for i := 0; i < 10; i++ {
		if e := s.Next(); e.Slowdown != 1 || e.ExtraPower != 0 || e.Active {
			t.Fatal("Steady must be a unit source")
		}
	}
}

func TestScenarioString(t *testing.T) {
	if Default.String() != "Default" || Compute.String() != "Compute" || Memory.String() != "Memory" {
		t.Error("scenario names wrong")
	}
	if len(Scenarios()) != 3 {
		t.Error("Scenarios() should list all three")
	}
}
