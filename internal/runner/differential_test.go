// Runner-level differential test for the core decide fast path: the full
// adaptive scheduler run end-to-end over scenario traces (including spec
// churn through runner.SpecSetter) must produce byte-identical decision
// sequences and records whether the controller scores with the optimized
// bound-and-prune SoA scan or with the retained naive reference scorer.
package runner_test

import (
	"reflect"
	"testing"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/runner"
)

// TestAlertFastPathMatchesReferenceOverTraces is the runner-level leg of
// the differential acceptance criterion. The churn scenario moves the spec
// mid-stream (SetSpec) and every Observe moves the filters, so this
// exercises the scan and its pruning under realistic dynamics.
func TestAlertFastPathMatchesReferenceOverTraces(t *testing.T) {
	for _, name := range []string{"phased", "thermal", "bursty", "churn"} {
		cfg := traceConfig(t, name, 17)

		fast := baselines.NewAlert("ALERT", cfg.Prof, cfg.Spec, core.DefaultOptions())
		refOpts := core.DefaultOptions()
		refOpts.ReferenceScorer = true
		ref := baselines.NewAlert("ALERT", cfg.Prof, cfg.Spec, refOpts)

		fastSeq := decisionString(cfg, fast)
		refSeq := decisionString(cfg, ref)
		if fastSeq == "" {
			t.Fatalf("%s: empty decision sequence", name)
		}
		if fastSeq != refSeq {
			t.Errorf("%s: fast-path decisions diverge from the reference scorer", name)
		}

		// Records too: same decisions through the same environment must
		// yield identical per-input samples and aggregates.
		recFast := runner.Run(cfg, baselines.NewAlert("ALERT", cfg.Prof, cfg.Spec, core.DefaultOptions()), nil)
		recRef := runner.Run(cfg, baselines.NewAlert("ALERT", cfg.Prof, cfg.Spec, refOpts), nil)
		if !reflect.DeepEqual(recFast.Samples, recRef.Samples) {
			t.Errorf("%s: per-input samples diverge between fast and reference runs", name)
		}
	}
}
