package runner_test

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestLoopParityPins pins absolute outputs of the per-input loop: the
// SHA-256 of each scheme's integer (model, cap) decision sequence under
// the churn scenario. Every other runner test compares two runs of the
// same code, so a seed swap or a reordering of churn and goal adjustment
// would pass them; these digests would not. Integers only, so the pins
// hold across Go versions whose math routines differ in the last bit.
//
// At traceConfig's loose image deadline both schemes hold one
// configuration throughout, so those two rows pin little beyond the
// stream length. The sentence rows carry the weight: the sentence-wise
// budget makes every goal depend on the latencies before it, and ALERT
// moves across 21 (model, cap) pairs there.
func TestLoopParityPins(t *testing.T) {
	image := traceConfig(t, "churn", 17)
	sentence := sentenceConfig(t, "churn", 17)
	for _, c := range []struct {
		cfg   runner.Config
		sched runner.Scheduler
		want  string
	}{
		{image, baselines.NewAlert("ALERT", image.Prof, image.Spec, core.DefaultOptions()), "39d3f4eacb819179d127c13e4a6216797c325058d6fae672dd7dda15f795e797"},
		{image, baselines.NewNoCoord(image.Prof, image.Spec), "2b1c6baeca088a5d77842a155f7c9dcca5a5ecb1b0d28c3d1e78ff54692265f4"},
		{sentence, baselines.NewAlert("ALERT", sentence.Prof, sentence.Spec, core.DefaultOptions()), "590c256b29ce4fc6b435d779e88751a009840a024bc48e4cda8b2a181137b85f"},
		{sentence, baselines.NewNoCoord(sentence.Prof, sentence.Spec), "84967af3f27ffeb4d7d4367a76df77b84a87b3160a50c0e6149b00766d6c20c4"},
	} {
		var b strings.Builder
		runner.Run(c.cfg, c.sched, func(_ workload.Input, d sim.Decision, _ sim.Outcome) {
			fmt.Fprintf(&b, "%d,%d;", d.Model, d.Cap)
		})
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v %s: decision digest %s, want %s", c.cfg.Prof.Models[0].Task, c.sched.Name(), got, c.want)
		}
	}
}

// sentenceConfig is traceConfig's run on CPU1 sentence prediction with a
// 50 ms per-word deadline: tight enough that ALERT moves between
// configurations under every built-in scenario.
func sentenceConfig(t *testing.T, name string, seed int64) runner.Config {
	t.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.CandidatesFor(dnn.SentencePrediction))
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{
		Prof:      prof,
		Spec:      core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.05, AccuracyGoal: 0.9},
		NumInputs: 150,
		Seed:      seed,
	}
	spec, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Trace, err = scenario.Compile(spec, prof.Platform, cfg.NumInputs, cfg.Spec.Deadline, seed); err != nil {
		t.Fatal(err)
	}
	return cfg
}
