// Scenario-trace tests live in an external test package because they use
// internal/baselines, which itself imports runner.
package runner_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// pinned is a trivial scheduler holding one configuration.
type pinned struct{ model, cap int }

func (pinned) Name() string { return "pinned" }
func (p pinned) Decide(_ *sim.Env, _ workload.Input, _ float64) sim.Decision {
	return sim.Decision{Model: p.model, Cap: p.cap}
}
func (pinned) Observe(workload.Input, sim.Decision, sim.Outcome) {}

// traceConfig builds a scenario-trace-driven config for a built-in
// scenario on CPU1 image classification.
func traceConfig(t *testing.T, name string, seed int64) runner.Config {
	t.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.CandidatesFor(dnn.ImageClassification))
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{
		Prof:      prof,
		Spec:      core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.1, AccuracyGoal: 0.9},
		NumInputs: 150,
		Seed:      seed,
	}
	spec, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.Compile(spec, prof.Platform, cfg.NumInputs, cfg.Spec.Deadline, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = tr
	return cfg
}

// decisionString flattens a run's decision sequence for byte-exact
// comparison, and counts its distinct (model, cap, stop) decisions: a
// comparison of sequences that hold one decision throughout sees no fault.
func decisionString(cfg runner.Config, sched runner.Scheduler) (string, int) {
	type decision struct {
		model, cap int
		stop       float64
	}
	var b strings.Builder
	distinct := make(map[decision]bool)
	runner.Run(cfg, sched, func(_ workload.Input, d sim.Decision, _ sim.Outcome) {
		fmt.Fprintf(&b, "%d,%d,%.17g,%.17g;", d.Model, d.Cap, d.PlannedStop, d.Overhead)
		distinct[decision{d.Model, d.Cap, d.PlannedStop}] = true
	})
	return b.String(), len(distinct)
}

// TestTraceReplayIdenticalDecisions pins the scenario acceptance property
// at the runner level: the same trace and seed yield a byte-identical
// decision sequence from the full adaptive scheduler. At traceConfig's
// loose image deadline ALERT holds one configuration throughout thermal
// and churn, so those legs run sentenceConfig's tighter one.
func TestTraceReplayIdenticalDecisions(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func(*testing.T, string, int64) runner.Config
	}{
		{"phased", traceConfig},
		{"thermal", sentenceConfig},
		{"churn", sentenceConfig},
	} {
		mk := func() (runner.Config, runner.Scheduler) {
			cfg := c.mk(t, c.name, 11)
			return cfg, baselines.NewAlert("ALERT", cfg.Prof, cfg.Spec, core.DefaultOptions())
		}
		cfgA, schedA := mk()
		cfgB, schedB := mk()
		a, distinct := decisionString(cfgA, schedA)
		b, _ := decisionString(cfgB, schedB)
		if distinct < 2 {
			t.Fatalf("%s: %d distinct decisions; a constant sequence cannot show a replay fault", c.name, distinct)
		}
		if a != b {
			t.Errorf("%s: same trace + same seed produced different decision sequences", c.name)
		}
	}
}

// TestTraceChurnMovesAccounting: under the churn scenario the goal moves
// mid-stream, and both the deadline tracker and the violation accounting
// must follow it.
func TestTraceChurnMovesAccounting(t *testing.T) {
	cfg := traceConfig(t, "churn", 3)
	rec := runner.Run(cfg, pinned{0, 0}, nil)
	seen := map[float64]bool{}
	for _, s := range rec.Samples {
		seen[s.Goal] = true
	}
	// churn cycles deadline factors {1, 0.7, 1.5} every 90 inputs; a
	// 150-input run crosses one boundary, so at least two distinct goals.
	if len(seen) < 2 {
		t.Errorf("goals never moved under churn: %v", seen)
	}
}

// TestTraceThrottleClampsCap: under the thermal scenario the applied cap
// must drop below the requested top cap during throttle windows — and only
// then.
func TestTraceThrottleClampsCap(t *testing.T) {
	cfg := traceConfig(t, "thermal", 5)
	top := len(cfg.Prof.Caps) - 1
	topW := cfg.Prof.Caps[top]
	rec := runner.Run(cfg, pinned{0, top}, nil)
	var clamped int
	for _, s := range rec.Samples {
		if s.Cap < topW-1e-9 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Error("thermal trace never clamped the applied cap")
	}
	if clamped == len(rec.Samples) {
		t.Error("cap clamped on every input; throttle duty cycle missing")
	}
}

// TestLoopFollowsChurn: Next reports changed on exactly the inputs where
// the trace's churn moves the spec, Spec is the churned spec from then on,
// and the goal follows it before the input is decided.
func TestLoopFollowsChurn(t *testing.T) {
	cfg := traceConfig(t, "churn", 3)
	loop := runner.NewLoop(cfg.NewEnv(), cfg.NewStream(), cfg.Spec, cfg.Trace)
	prev, moves := cfg.Spec, 0
	for {
		in, goal, changed, ok := loop.Next()
		if !ok {
			break
		}
		want := cfg.Trace.SpecFor(in.ID, cfg.Spec)
		if loop.Spec != want || changed != (want != prev) {
			t.Fatalf("input %d: spec %+v changed=%v, want %+v changed=%v", in.ID, loop.Spec, changed, want, want != prev)
		}
		// An image input's goal is the whole per-input deadline.
		if goal != want.Deadline {
			t.Fatalf("input %d: goal %v, want the churned deadline %v", in.ID, goal, want.Deadline)
		}
		if changed {
			moves++
		}
		prev = want
		loop.Run(in, sim.Decision{}, goal)
	}
	if moves == 0 {
		t.Fatal("churn never moved the spec")
	}
}
