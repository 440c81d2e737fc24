package platform

import (
	"math"
	"testing"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"Embedded", "CPU1", "CPU2", "GPU"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("got %s", p.Name)
		}
	}
	if _, err := ByName("TPU"); err == nil {
		t.Error("expected error for unknown platform")
	}
}

func TestCapsLadder(t *testing.T) {
	for _, p := range All() {
		caps := p.Caps()
		if len(caps) < 2 {
			t.Fatalf("%s: ladder too short", p.Name)
		}
		if caps[0] != p.PMin || caps[len(caps)-1] != p.PMax {
			t.Errorf("%s: ladder endpoints %g..%g, want %g..%g",
				p.Name, caps[0], caps[len(caps)-1], p.PMin, p.PMax)
		}
		for i := 1; i < len(caps); i++ {
			if math.Abs(caps[i]-caps[i-1]-p.PStep) > 1e-9 {
				t.Errorf("%s: uneven step at %d", p.Name, i)
			}
		}
	}
}

func TestCPU2SpeedRatioMatchesFig3(t *testing.T) {
	p := CPU2()
	ratio := p.Speed(100) / p.Speed(40)
	if math.Abs(ratio-2.0) > 0.02 {
		t.Errorf("CPU2 speed(100)/speed(40) = %.3f, want ~2.0 (Fig. 3)", ratio)
	}
}

func TestSpeedMonotone(t *testing.T) {
	for _, p := range All() {
		prev := 0.0
		for _, c := range p.Caps() {
			s := p.Speed(c)
			if s <= prev {
				t.Errorf("%s: speed not strictly increasing at %gW", p.Name, c)
			}
			prev = s
		}
	}
}

func TestSpeedClampsOutOfRange(t *testing.T) {
	p := CPU1()
	if p.Speed(p.PMin-100) != p.Speed(p.PMin) {
		t.Error("below-range cap not clamped")
	}
	if p.Speed(p.PMax+100) != p.Speed(p.PMax) {
		t.Error("above-range cap not clamped")
	}
}

func TestInferencePowerSaturates(t *testing.T) {
	p := CPU2()
	if p.InferencePower(100) != p.InferencePower(p.DrawCeil) {
		t.Error("draw should saturate at the ceiling")
	}
	if p.InferencePower(40) >= p.InferencePower(60) {
		t.Error("draw should rise while the cap binds")
	}
	if p.InferencePower(50) > 50 {
		t.Error("draw must not exceed the cap")
	}
}

func TestFits(t *testing.T) {
	e := Embedded()
	if e.Fits(3.0) {
		t.Error("3GB model should not fit the 2GB board")
	}
	if !e.Fits(0.4) {
		t.Error("RNN should fit the embedded board")
	}
}

func TestGPUQuieterThanCPUs(t *testing.T) {
	if GPUPlatform().BaselineNoise >= CPU1().BaselineNoise {
		t.Error("paper: GPU has significantly lower fluctuation than CPUs")
	}
}
