package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smokeSizing shrinks every workload to 32 streams and 40 checked loops per
// driver so all four run, untraced and traced, in a few seconds.
var smokeSizing = sizing{setups: 1, oracleLoops: 40, simLoops: 40, probeLoops: 40, streams: 32}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, defs []metricDef, vals map[string]float64) {
	t.Helper()
	if len(vals) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(vals), len(defs))
	}
	for _, def := range defs {
		if !metricName.MatchString(def.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", def.Name)
		}
		v, ok := vals[def.Name]
		if !ok {
			t.Errorf("metric %s not emitted", def.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", def.Name, v)
		}
	}
}

func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 400*time.Millisecond, traced, smokeSizing, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d notes=%v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			if traced {
				checkMetrics(t, perLayer, res.PerLayer)
				if res.PerLayer["overload.shed_total"] != 0 {
					t.Errorf("%s: %v requests shed", w.Name, res.PerLayer["overload.shed_total"])
				}
			} else {
				checkMetrics(t, endToEnd, res.EndToEnd)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
		}
	}
}

// TestManifestMatchesBinary pins BENCHMARK.json to the tables the runs use:
// a workload or metric added to one and not the other fails here.
func TestManifestMatchesBinary(t *testing.T) {
	want, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from `alertbench -manifest`; regenerate it")
	}
}
