package sim

import (
	"math"
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/workload"
)

func newTestEnv(t *testing.T, cont contention.Source) *Env {
	t.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(prof, cont, 42)
}

func TestStepLatencyScalesWithXi(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	xi := env.PeekXi(in)
	out := env.Step(Decision{Model: 0, Cap: env.Prof.NumCaps() - 1}, in, 10, 10)
	want := env.Prof.At(0, env.Prof.NumCaps()-1) * xi
	if math.Abs(out.Latency-want) > 1e-12 {
		t.Errorf("latency %g, want tprof*xi = %g", out.Latency, want)
	}
	if out.TrueXi != xi || out.ObservedXi != xi {
		t.Error("xi bookkeeping mismatch")
	}
}

func TestPeekDoesNotAdvance(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	a := env.PeekXi(in)
	b := env.PeekXi(in)
	if a != b {
		t.Fatal("PeekXi not idempotent")
	}
	if env.now != 0 {
		t.Fatal("PeekXi advanced the environment")
	}
	out := env.Step(Decision{Model: 0, Cap: 0}, in, 10, 10)
	if out.TrueXi != a {
		t.Fatal("Step consumed a different draw than PeekXi exposed")
	}
}

func TestEvaluateAtMatchesStep(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1.07}
	d := Decision{Model: 2, Cap: 3}
	eval := env.EvaluateAt(d, in, 0.1, 0.1)
	step := env.Step(d, in, 0.1, 0.1)
	if eval != step {
		t.Fatalf("EvaluateAt %+v != Step %+v", eval, step)
	}
}

func TestTraditionalDeadlineMissYieldsQFail(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	m := env.Prof.ModelIndex("SparseResNet-XL")
	// Impossible goal: even the top cap cannot finish in 1 ms.
	out := env.Step(Decision{Model: m, Cap: env.Prof.NumCaps() - 1}, in, 0.001, 0.001)
	if out.DeadlineMet {
		t.Fatal("deadline cannot have been met")
	}
	if out.Quality != env.Prof.Models[m].QFail {
		t.Errorf("quality = %g, want QFail", out.Quality)
	}
	// The traditional model runs to completion: latency is the full time,
	// not the goal.
	if out.Latency <= 0.001 {
		t.Error("traditional model should run past the missed deadline")
	}
}

func TestAnytimeCutAtGoal(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	nest := env.Prof.ModelIndex("DepthNest")
	top := env.Prof.NumCaps() - 1
	full := env.Prof.At(nest, top)
	goal := full * 0.5 // only ~half the ladder can run
	out := env.Step(Decision{Model: nest, Cap: top}, in, goal, goal)
	if out.Latency > goal {
		t.Fatalf("anytime model ran past its cut: %g > %g", out.Latency, goal)
	}
	m := env.Prof.Models[nest]
	if out.Quality >= m.Accuracy {
		t.Error("cut ladder should not deliver final accuracy")
	}
	if out.Quality < m.Stages[0].Accuracy {
		t.Error("half the ladder should deliver at least stage 0")
	}
	if out.Stage < 0 {
		t.Error("some stage must have completed")
	}
}

func TestAnytimePlannedStopBindsBeforeGoal(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	nest := env.Prof.ModelIndex("DepthNest")
	top := env.Prof.NumCaps() - 1
	full := env.Prof.At(nest, top)
	stop := full * 0.3
	out := env.Step(Decision{Model: nest, Cap: top, PlannedStop: stop}, in, full*4, full*4)
	if out.Latency > stop+1e-9 {
		t.Fatalf("planned stop ignored: latency %g > stop %g", out.Latency, stop)
	}
}

func TestEnergyAccounting(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	d := Decision{Model: 0, Cap: 2}
	period := 1.0
	out := env.Step(d, in, period, period)
	plat := env.Plat
	m := env.Prof.Models[0]
	wantInfer := plat.InferencePower(env.Prof.Caps[2]) * m.UtilFactor * out.Latency
	if math.Abs(out.InferEnergy-wantInfer) > 1e-9 {
		t.Errorf("infer energy %g, want %g", out.InferEnergy, wantInfer)
	}
	wantIdle := plat.IdlePower * (period - out.Latency)
	if math.Abs(out.IdleEnergy-wantIdle) > 1e-9 {
		t.Errorf("idle energy %g, want %g", out.IdleEnergy, wantIdle)
	}
	if math.Abs(out.Energy-(out.InferEnergy+out.IdleEnergy)) > 1e-12 {
		t.Error("total energy != parts")
	}
}

func TestOverheadCharged(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	base := env.EvaluateAt(Decision{Model: 0, Cap: 0}, in, 10, 10)
	withOh := env.EvaluateAt(Decision{Model: 0, Cap: 0, Overhead: 0.005}, in, 10, 10)
	if math.Abs(withOh.Latency-base.Latency-0.005) > 1e-12 {
		t.Error("overhead not charged to latency")
	}
	if withOh.InferEnergy <= base.InferEnergy {
		t.Error("overhead not charged to energy")
	}
}

func TestContentionRaisesIdlePower(t *testing.T) {
	// Force a contended draw by using a scripted burst covering input 0.
	cont := contention.NewScripted(platform.CPU, 5, contention.Burst{Start: 0, End: 10, Scenario: contention.Memory})
	env := newTestEnv(t, cont)
	in := workload.Input{ID: 0, SizeFactor: 1}
	out := env.Step(Decision{Model: 0, Cap: 0}, in, 1, 1)
	if out.IdlePower <= env.Plat.IdlePower {
		t.Errorf("co-runner draw missing from idle power: %g", out.IdlePower)
	}
	if !out.ContentionActive {
		t.Error("contention flag not set")
	}
}

func TestClockAdvancesByWindow(t *testing.T) {
	env := newTestEnv(t, contention.Steady{})
	in := workload.Input{ID: 0, SizeFactor: 1}
	env.Step(Decision{Model: 0, Cap: 0}, in, 0.5, 0.5)
	if math.Abs(env.now-0.5) > 1e-12 {
		t.Errorf("clock %g, want period 0.5", env.now)
	}
	// A run overshooting the period stretches the window.
	in2 := workload.Input{ID: 1, SizeFactor: 1}
	out := env.Step(Decision{Model: env.Prof.ModelIndex("SparseResNet-XL"), Cap: 0}, in2, 0.0001, 0.0001)
	if env.now < 0.5+out.Latency-1e-9 {
		t.Error("clock did not stretch for an overrun")
	}
}

func TestDeterministicReplayAcrossDecisions(t *testing.T) {
	// The environment draws must not depend on the decisions taken — the
	// property OracleStatic's exhaustive replay relies on.
	mkEnv := func() *Env {
		prof, _ := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
		return NewEnv(prof, contention.NewSource(contention.Memory, platform.CPU, 9), 42)
	}
	a, b := mkEnv(), mkEnv()
	for i := 0; i < 200; i++ {
		in := workload.Input{ID: i, SizeFactor: 1}
		oa := a.Step(Decision{Model: 0, Cap: 0}, in, 1, 1)
		ob := b.Step(Decision{Model: 4, Cap: 10}, in, 1, 1)
		if oa.TrueXi != ob.TrueXi {
			t.Fatalf("input %d: draws diverged across decisions", i)
		}
	}
}

// TestStepAllocFree: peeking and stepping an input allocates nothing — the
// pending draw is held by value — so a load generator driving millions of
// simulated inputs adds no garbage of its own.
func TestStepAllocFree(t *testing.T) {
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(prof, contention.NewSource(contention.Memory, platform.CPU, 9), 42)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in := workload.Input{ID: i, SizeFactor: 1}
		env.PeekXi(in)
		env.Step(Decision{Model: 1, Cap: 2}, in, 0.1, 0.1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per peek+step, want 0", allocs)
	}
}
