package main

import (
	"strings"
	"testing"
)

// gateCompareConfig parses a -gate-compare flag set at a scale the caller
// picks; the shared defaults keep the trials short enough for tests.
func gateCompareConfig(t testing.TB, extra ...string) loadConfig {
	t.Helper()
	args := append([]string{
		"-gate-compare", "-scenario", "churn", "-seed", "7",
		"-streams", "4", "-inputs", "8",
	}, extra...)
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGateTrialInvariants runs one small trial per gate at 2x overload and
// checks the two machine-checked guarantees directly: request conservation
// (every request served or shed, none dropped) and the determinism oracle
// (served decisions byte-identical to an in-process replay). It does NOT
// assert adaptive ≥ static — at this scale the comparison is noise; the
// CI-gated verdict runs at -streams 32 -inputs 40.
func TestGateTrialInvariants(t *testing.T) {
	tc, err := gateTrialConfigFrom(gateCompareConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			res, err := runGateTrial(tc, adaptive)
			if err != nil {
				t.Fatal(err)
			}
			if res.issued != tc.streams*tc.inputs {
				t.Errorf("issued %d, want %d", res.issued, tc.streams*tc.inputs)
			}
			if res.served+res.shed != res.issued {
				t.Errorf("conservation broke: served %d + shed %d != issued %d",
					res.served, res.shed, res.issued)
			}
			if res.served == 0 {
				t.Error("trial served nothing")
			}
			if err := verifyGateDecisions(tc, res); err != nil {
				t.Errorf("determinism oracle: %v", err)
			}
			if res.gate.Adaptive != adaptive || res.gate.SLOShed != adaptive {
				t.Errorf("gate snapshot adaptive=%v slo_shed=%v, want %v",
					res.gate.Adaptive, res.gate.SLOShed, adaptive)
			}
			if !adaptive && (res.gate.InflightLimit != tc.gateInflight || res.gate.QueueLimit != tc.gateQueue) {
				t.Errorf("static gate moved its limits to %d/%d",
					res.gate.InflightLimit, res.gate.QueueLimit)
			}
		})
	}
}

// TestGateCompareRun drives the full -gate-compare mode through run() below
// capacity (-overload 0.5) with a roomy wall deadline: no queue can fill (4
// streams vs a 16-slot queue), no deadline is ever hopeless (500ms vs
// millisecond-scale delays), so neither gate sheds, both serve everything
// in time, and the adaptive-loses exit path cannot trip — the report's
// shape is stable enough to pin.
func TestGateCompareRun(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-gate-compare", "-scenario", "steady", "-seed", "3",
		"-streams", "4", "-inputs", "8", "-overload", "0.5",
		"-wall-deadline", "500ms",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"gate-compare: scenario=steady",
		"offered 0.5x capacity",
		"static:", "adaptive:",
		"decision determinism: both gates byte-identical to the in-process replay",
		"adaptive SLO gain:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestGateCompareFlagErrors: the gate-compare flag set rejects everything
// that would change what the trial measures, and its tuning knobs refuse to
// dangle without the mode.
func TestGateCompareFlagErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-gate-compare", "-addr", "127.0.0.1:1"},
		{"-gate-compare", "-addrs", "127.0.0.1:1,127.0.0.1:2"},
		{"-gate-compare", "-chaos"},
		{"-gate-compare", "-wire", "binary"},
		{"-gate-compare", "-reference-scorer"},
		{"-gate-compare", "-decisions-out", "x.txt"},
		{"-gate-compare", "-record", "x.json"},
		{"-gate-compare", "-overload", "0"},
		{"-gate-compare", "-overload", "-1"},
		{"-gate-compare", "-gate-inflight", "0"},
		{"-gate-compare", "-gate-queue", "0"},
		{"-gate-compare", "-service-delay", "0s"},
		{"-gate-compare", "-wall-deadline", "-1ms"},
		{"-overload", "3"},
		{"-gate-inflight", "4"},
		{"-gate-queue", "8"},
		{"-service-delay", "5ms"},
		{"-wall-deadline", "25ms"},
		{"-adaptive"},
		{"-adaptive", "-gate-compare"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
}

// BenchmarkGateCompare runs one sub-benchmark per gate at the same
// 2x-overload schedule the overload-smoke job drives, each reporting SLO
// attainment as the "slo%" metric. The gate on adaptive >= static is the
// overload-smoke job's -gate-compare exit status, not this benchmark.
func BenchmarkGateCompare(b *testing.B) {
	tc, err := gateTrialConfigFrom(gateCompareConfig(b, "-streams", "32", "-inputs", "40"))
	if err != nil {
		b.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		name := "static"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var slo float64
			for i := 0; i < b.N; i++ {
				res, err := runGateTrial(tc, adaptive)
				if err != nil {
					b.Fatal(err)
				}
				if err := verifyGateDecisions(tc, res); err != nil {
					b.Fatal(err)
				}
				slo = 100 * res.slo()
			}
			// ns/op is left at the default (the schedule's wall time);
			// slo% is the column to read.
			b.ReportMetric(slo, "slo%")
		})
	}
}
