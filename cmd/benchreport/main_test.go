package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canned is a representative `go test -bench -benchmem` transcript: mixed
// packages, -GOMAXPROCS suffixes, custom metrics, and non-benchmark noise.
const canned = `goos: linux
goarch: amd64
pkg: github.com/alert-project/alert/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDecide/naive-8         	     500	     58683 ns/op	     17041 decisions/s	       0 B/op	       0 allocs/op
BenchmarkDecide/uncached-8      	     500	      4177 ns/op	    239387 decisions/s	       0 B/op	       0 allocs/op
PASS
ok  	github.com/alert-project/alert/internal/core	0.092s
pkg: github.com/alert-project/alert/internal/serve
BenchmarkPoolDecideBatch-8   	     300	     15729 ns/op	   4069029 decisions/s	   12048 B/op	      28 allocs/op
BenchmarkPoolManyStreams/shared-engine-8         	     300	     22440 ns/op	       846.9 bytes/stream	     44563 decisions/s	   1927862 streams/s	       1 B/op	       0 allocs/op
BenchmarkPoolManyStreams/naive-controllers-8     	     300	     23445 ns/op	     32272 bytes/stream	     42653 decisions/s	     36624 streams/s	       0 B/op	       0 allocs/op
ok  	github.com/alert-project/alert/internal/serve	0.018s
pkg: github.com/alert-project/alert/internal/netserve
BenchmarkNetServe/decide-8       	     300	     61732 ns/op	     16200 decisions/s	   10531 B/op	     118 allocs/op
BenchmarkNetServe/batch64-8      	     300	    549911 ns/op	    116383 decisions/s	  134012 B/op	     230 allocs/op
BenchmarkNetServe/binary-8       	     300	      4514 ns/op	    221532 decisions/s	     529 B/op	       2 allocs/op
BenchmarkBinaryServerDecide-8    	     300	     14804 ns/op	     67549 decisions/s	       0 B/op	       0 allocs/op
ok  	github.com/alert-project/alert/internal/netserve	0.193s
pkg: github.com/alert-project/alert/cmd/alertload
BenchmarkGateCompare/static-8    	       1	 961042183 ns/op	        10.16 slo%	  912384 B/op	    9421 allocs/op
BenchmarkGateCompare/adaptive-8  	       1	 958731044 ns/op	        31.25 slo%	  899102 B/op	    9310 allocs/op
ok  	github.com/alert-project/alert/cmd/alertload	2.287s
`

func TestParseBenchOutput(t *testing.T) {
	entries, err := parseBenchOutput(canned)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 11 {
		t.Fatalf("parsed %d entries, want 11", len(entries))
	}
	shared := find(entries, "BenchmarkPoolManyStreams/shared-engine")
	if shared == nil || shared.Metrics["bytes/stream"] != 846.9 {
		t.Errorf("shared-engine bytes/stream entry wrong: %+v", shared)
	}
	scan := find(entries, "BenchmarkDecide/uncached")
	if scan == nil {
		t.Fatal("BenchmarkDecide/uncached not found (proc suffix not stripped?)")
	}
	if scan.NsPerOp != 4177 || scan.Iterations != 500 {
		t.Errorf("uncached ns/op = %g iters = %d", scan.NsPerOp, scan.Iterations)
	}
	if scan.AllocsPerOp == nil || *scan.AllocsPerOp != 0 {
		t.Errorf("uncached allocs/op = %v, want explicit 0", scan.AllocsPerOp)
	}
	if got := scan.Metrics["decisions/s"]; got != 239387 {
		t.Errorf("uncached decisions/s = %g", got)
	}
	batch := find(entries, "BenchmarkPoolDecideBatch")
	if batch == nil || batch.AllocsPerOp == nil || *batch.AllocsPerOp != 28 {
		t.Errorf("batch entry wrong: %+v", batch)
	}
	gate := find(entries, "BenchmarkGateCompare/adaptive")
	if gate == nil || gate.Metrics["slo%"] != 31.25 {
		t.Errorf("gate-compare adaptive slo%% entry wrong: %+v", gate)
	}
}

func TestMergeMinKeepsFastestRun(t *testing.T) {
	text := canned + `
BenchmarkDecide/uncached-8      	     500	      3909 ns/op	    255820 decisions/s	       0 B/op	       0 allocs/op
BenchmarkDecide/naive-8         	     500	     60001 ns/op	     16000 decisions/s	       0 B/op	       0 allocs/op
`
	entries, err := parseBenchOutput(text)
	if err != nil {
		t.Fatal(err)
	}
	merged := mergeMin(entries)
	if len(merged) != 11 {
		t.Fatalf("merged to %d entries, want 11", len(merged))
	}
	if un := find(merged, "BenchmarkDecide/uncached"); un == nil || un.NsPerOp != 3909 {
		t.Errorf("uncached merge kept %+v, want the 3909 ns/op run", un)
	}
	if nv := find(merged, "BenchmarkDecide/naive"); nv == nil || nv.NsPerOp != 58683 {
		t.Errorf("naive merge kept %+v, want the 58683 ns/op run", nv)
	}
}

func TestDerivedSpeedups(t *testing.T) {
	entries, err := parseBenchOutput(canned)
	if err != nil {
		t.Fatal(err)
	}
	d := derived(entries)
	if len(d) != 5 {
		t.Fatalf("derived %d entries, want 5", len(d))
	}
	if d[0].Name != "derived/decide-speedup-uncached-vs-naive" {
		t.Errorf("first derived entry is %q", d[0].Name)
	}
	if un := d[0].Metrics["x"]; un < 14.0 || un > 14.1 {
		t.Errorf("uncached speedup = %g, want ~14.05 (58683/4177)", un)
	}
	if mem := d[1].Metrics["x"]; mem < 38 || mem > 39 {
		t.Errorf("manystreams bytes reduction = %g, want ~38.1 (32272/846.9)", mem)
	}
	if d[1].Name != "derived/manystreams-bytes-reduction" {
		t.Errorf("second derived entry is %q", d[1].Name)
	}
	if d[2].Name != "derived/netserve-batch-speedup" {
		t.Errorf("third derived entry is %q", d[2].Name)
	}
	if net := d[2].Metrics["x"]; net < 7.1 || net > 7.3 {
		t.Errorf("netserve batch speedup = %g, want ~7.18 (116383/16200)", net)
	}
	if d[3].Name != "derived/netserve-binwire-speedup" {
		t.Errorf("fourth derived entry is %q", d[3].Name)
	}
	if bw := d[3].Metrics["x"]; bw < 13.6 || bw > 13.8 {
		t.Errorf("netserve binwire speedup = %g, want ~13.67 (221532/16200)", bw)
	}
	if d[4].Name != "derived/adaptive-slo-gain" {
		t.Errorf("fifth derived entry is %q", d[4].Name)
	}
	if pp := d[4].Metrics["pp"]; pp < 21.0 || pp > 21.2 {
		t.Errorf("adaptive slo gain = %g pp, want ~21.09 (31.25 - 10.16)", pp)
	}
}

func TestCheckGates(t *testing.T) {
	entries, _ := parseBenchOutput(canned)
	entries = append(entries, derived(entries)...)
	if err := checkGates(entries, 2.0, 10.0, 2.0, 10.0, 0.0); err != nil {
		t.Errorf("gates should pass on the canned snapshot: %v", err)
	}
	if err := checkGates(entries, 20.0, 10.0, 2.0, 10.0, 0.0); err == nil {
		t.Error("uncached speedup 14.05x must fail a 20x gate")
	}
	if err := checkGates(entries, 2.0, 100.0, 2.0, 10.0, 0.0); err == nil {
		t.Error("38x memory reduction must fail a 100x gate")
	}

	// An alloc regression on the scan must fail.
	regressed, _ := parseBenchOutput(strings.Replace(canned,
		"4177 ns/op	    239387 decisions/s	       0 B/op	       0 allocs/op",
		"4177 ns/op	    239387 decisions/s	      48 B/op	       2 allocs/op", 1))
	regressed = append(regressed, derived(regressed)...)
	if err := checkGates(regressed, 2.0, 10.0, 2.0, 10.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "allocates") {
		t.Errorf("alloc regression not caught: %v", err)
	}

	// A snapshot missing the many-streams pair cannot assert the memory
	// contract and must say so.
	noMem, _ := parseBenchOutput(strings.ReplaceAll(canned, "BenchmarkPoolManyStreams", "BenchmarkGone"))
	noMem = append(noMem, derived(noMem)...)
	if err := checkGates(noMem, 2.0, 10.0, 2.0, 10.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "manystreams") {
		t.Errorf("missing many-streams pair not caught: %v", err)
	}

	// The ~7.2x network batch amplification must fail a 100x gate, and a
	// snapshot without the netserve pair cannot assert the contract.
	if err := checkGates(entries, 2.0, 10.0, 100.0, 10.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "netserve-batch-speedup") {
		t.Errorf("net batch speedup gate not enforced: %v", err)
	}
	noNet, _ := parseBenchOutput(strings.ReplaceAll(canned, "BenchmarkNetServe", "BenchmarkGone"))
	noNet = append(noNet, derived(noNet)...)
	if err := checkGates(noNet, 2.0, 10.0, 2.0, 10.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "netserve") {
		t.Errorf("missing netserve pair not caught: %v", err)
	}

	// The binary transport's 13.67x must fail a 100x gate, and an alloc
	// regression on the server's binary decide path must be caught.
	if err := checkGates(entries, 2.0, 10.0, 2.0, 100.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "binwire") {
		t.Errorf("binwire speedup gate not enforced: %v", err)
	}
	binRegressed, _ := parseBenchOutput(strings.Replace(canned,
		"14804 ns/op	     67549 decisions/s	       0 B/op	       0 allocs/op",
		"14804 ns/op	     67549 decisions/s	      96 B/op	       3 allocs/op", 1))
	binRegressed = append(binRegressed, derived(binRegressed)...)
	if err := checkGates(binRegressed, 2.0, 10.0, 2.0, 10.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "BinaryServerDecide") {
		t.Errorf("binary server alloc regression not caught: %v", err)
	}

	// The canned +21.09 pp adaptive SLO gain must fail a +30 pp gate, and
	// a snapshot without the gate-compare pair cannot assert the adaptive
	// admission contract.
	if err := checkGates(entries, 2.0, 10.0, 2.0, 10.0, 30.0); err == nil ||
		!strings.Contains(err.Error(), "adaptive-slo-gain") {
		t.Errorf("adaptive slo gain gate not enforced: %v", err)
	}
	noGate, _ := parseBenchOutput(strings.ReplaceAll(canned, "BenchmarkGateCompare", "BenchmarkGone"))
	noGate = append(noGate, derived(noGate)...)
	if err := checkGates(noGate, 2.0, 10.0, 2.0, 10.0, 0.0); err == nil ||
		!strings.Contains(err.Error(), "adaptive-slo-gain") {
		t.Errorf("missing gate-compare pair not caught: %v", err)
	}

	// A snapshot without the decide benchmarks cannot be gated.
	if err := checkGates(nil, 2.0, 10.0, 2.0, 10.0, 0.0); err == nil {
		t.Error("empty snapshot must fail the gate")
	}
}

// TestRunFromInput drives the CLI end-to-end in parse mode: captured
// output in, JSON snapshot out, gates enforced.
func TestRunFromInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "BENCH_test.json")
	if err := os.WriteFile(in, []byte(canned), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-input", in, "-out", out, "-check"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "perf gates passed") {
		t.Errorf("missing gate confirmation in output: %q", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(entries) != 16 { // 11 parsed + 5 derived
		t.Errorf("snapshot has %d entries, want 16", len(entries))
	}

	// And a failing gate must surface as an error.
	if err := run([]string{"-input", in, "-out", out, "-check", "-min-speedup", "1e9"}, &buf); err == nil {
		t.Error("impossible min-speedup should fail")
	}
	if err := run([]string{"-input", in, "-out", out, "-check", "-min-adaptive-slo-gain", "99"}, &buf); err == nil {
		t.Error("impossible min-adaptive-slo-gain should fail")
	}
}

func TestRunNoResults(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("PASS\nok x 0.1s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-input", in}, &buf); err == nil {
		t.Error("no benchmark results should be an error")
	}
}
