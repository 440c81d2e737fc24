package main

import (
	"strings"
	"testing"
)

// drillConfig parses an -overload-drill flag set at a scale the caller
// picks; the shared defaults keep the trials short enough for tests.
func drillConfig(t testing.TB, extra ...string) loadConfig {
	t.Helper()
	args := append([]string{
		"-overload-drill", "-scenario", "churn", "-seed", "7",
		"-streams", "4", "-inputs", "8",
	}, extra...)
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestGateTrialInvariants runs one small trial at 2x overload and checks
// the two machine-checked guarantees directly: request conservation (every
// request served or shed, none dropped) and the determinism oracle (served
// decisions byte-identical to an in-process replay). The drill's other
// bounds are not asserted at this scale; CI runs them at -streams 32
// -inputs 40.
func TestGateTrialInvariants(t *testing.T) {
	// The one gate is the measured-delay (adaptive) controller; the
	// subtest keeps its name from when the trial had a static arm too.
	t.Run("adaptive", func(t *testing.T) {
		tc, err := gateTrialConfigFrom(drillConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runGateTrial(tc)
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
	})
}

// TestGateCompareRun drives the full -overload-drill mode through run()
// below capacity (-overload 0.5) with a roomy wall deadline: no queue can
// fill (4 streams vs a 16-slot queue), no deadline can expire in it (500ms
// vs millisecond-scale delays), so the gate sheds nothing, serves
// everything in time and every bound holds — the report's shape is stable
// enough to pin.
func TestGateCompareRun(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-overload-drill", "-scenario", "steady", "-seed", "3",
		"-streams", "4", "-inputs", "8", "-overload", "0.5",
		"-wall-deadline", "500ms",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"overload-drill: scenario=steady",
		"offered 0.5x capacity",
		"gate: slo 100.0% | decides served 32/32 (met 32), shed 0 | server sheds (decide+observe): overload 0, deadline 0 |",
		"decision determinism: byte-identical to the in-process replay",
		"bounds held: deadline sheds 0 <= 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestGateCompareFlagErrors: the -overload-drill flag set rejects
// everything that would change what the trial measures, its tuning knobs
// refuse to dangle without the mode, and the retired mode and gate flags
// are unknown.
func TestGateCompareFlagErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-overload-drill", "-addr", "127.0.0.1:1"},
		{"-overload-drill", "-addrs", "127.0.0.1:1,127.0.0.1:2"},
		{"-overload-drill", "-chaos"},
		{"-overload-drill", "-wire", "binary"},
		{"-overload-drill", "-reference-scorer"},
		{"-overload-drill", "-decisions-out", "x.txt"},
		{"-overload-drill", "-record", "x.json"},
		{"-overload-drill", "-overload", "0"},
		{"-overload-drill", "-overload", "-1"},
		{"-overload-drill", "-gate-inflight", "0"},
		{"-overload-drill", "-gate-queue", "0"},
		{"-overload-drill", "-service-delay", "0s"},
		{"-overload-drill", "-wall-deadline", "-1ms"},
		{"-overload", "3"},
		{"-gate-inflight", "4"},
		{"-gate-queue", "8"},
		{"-service-delay", "5ms"},
		{"-wall-deadline", "25ms"},
		{"-gate-compare"},
		{"-chaos", "-adaptive"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
}

// BenchmarkOverloadDrill runs the drill at the same 2x-overload schedule
// the overload-smoke job drives, reporting SLO attainment as the "slo%"
// metric. The gate on the drill's bounds is the overload-smoke job's
// -overload-drill exit status, not this benchmark.
func BenchmarkOverloadDrill(b *testing.B) {
	tc, err := gateTrialConfigFrom(drillConfig(b, "-streams", "32", "-inputs", "40"))
	if err != nil {
		b.Fatal(err)
	}
	var slo float64
	for i := 0; i < b.N; i++ {
		res, err := runGateTrial(tc)
		if err != nil {
			b.Fatal(err)
		}
		if err := verifyGateDecisions(tc, res); err != nil {
			b.Fatal(err)
		}
		slo = 100 * res.slo()
	}
	// ns/op is left at the default (the schedule's wall time); slo% is the
	// column to read.
	b.ReportMetric(slo, "slo%")
}
