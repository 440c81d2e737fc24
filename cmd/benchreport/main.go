// Command benchreport is the perf-trajectory harness: it runs the decide
// and serving benchmarks with -benchmem, parses the results, and emits a
// BENCH_<n>.json snapshot (ns/op, allocs/op, and the decisions/s metric the
// benchmarks report) so hot-path regressions are visible PR over PR.
//
// Because BenchmarkDecide measures the retained naive scorer ("naive")
// alongside the optimized bound-and-prune scan ("uncached") in the same
// run, every snapshot carries its own baseline: the derived speedup entry
// needs no stored history to be meaningful, and -check can gate on it no
// matter how fast or slow the machine is.
//
// Usage:
//
//	benchreport -out BENCH_4.json                 # run benchmarks, write snapshot
//	benchreport -out BENCH_4.json -check          # also enforce the perf gates
//	benchreport -input bench.txt -out BENCH_4.json # parse captured `go test -bench` output
//
// The -check gates:
//
//   - BenchmarkDecide/uncached must report 0 allocs/op (the scan every
//     served decision runs is contractually allocation-free),
//   - BenchmarkDecide/uncached must be at least -min-speedup times faster
//     than BenchmarkDecide/naive from the same run, and
//   - BenchmarkPoolManyStreams/shared-engine must use at least
//     -min-mem-reduction times fewer bytes per stream than the same run's
//     naive one-Controller-per-stream construction (the Engine/Session
//     memory contract at 10k streams), and
//   - BenchmarkNetServe/batch64 must sustain at least
//     -min-net-batch-speedup times the decisions/s of the same run's
//     single-decide loopback round trips (the network batching contract),
//   - BenchmarkNetServe/binary must sustain at least -min-binwire-speedup
//     times the decisions/s of the same run's single-request JSON decides
//     (the binary transport contract), and
//   - BenchmarkBinaryServerDecide must report 0 allocs/op (the server's
//     steady-state binary decide path is contractually allocation-free;
//     the benchmark's client side allocates nothing, so allocs/op is the
//     server's count), and
//   - BenchmarkGateCompare/adaptive must beat the same run's /static SLO
//     attainment by at least -min-adaptive-slo-gain percentage points
//     under the shared 2x-overload schedule (the adaptive admission
//     contract).
//
// BenchmarkNetServe/binary-loop — Decide then Observe per iteration over
// binwire, the one row of this series that closes the paper's loop — is
// recorded with its loops/s metric like any other row and has no gate: its
// regressions are the repository benchmark's business (bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// Entry is one benchmark result (or derived metric) in the JSON snapshot.
type Entry struct {
	// Name is the benchmark path with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkDecide/uncached".
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations,omitempty"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	// BytesPerOp and AllocsPerOp are pointers so a genuine 0 (the value the
	// gates care about) survives JSON encoding while absent -benchmem data
	// is omitted.
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type config struct {
	bench              string
	benchtime          string
	count              int
	heavyBench         string
	heavyBenchtime     string
	overloadBench      string
	overloadBenchtime  string
	pkgs               string
	out                string
	input              string
	check              bool
	minSpeedup         float64
	minMemReduction    float64
	minNetBatchSpeedup float64
	minBinwireSpeedup  float64
	minAdaptiveSLOGain float64
}

func run(args []string, stdout io.Writer) error {
	var cfg config
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.StringVar(&cfg.bench, "bench",
		"^(BenchmarkDecide|BenchmarkDecideZoo|BenchmarkDecideAtCap|BenchmarkPoolDecide|BenchmarkPoolDecideObserve|BenchmarkPoolDecideBatch|BenchmarkPoolManyStreams|BenchmarkServeBatch|BenchmarkNetServe|BenchmarkBinaryServerDecide|BenchmarkSnapshotRoundTrip)$",
		"benchmark regex passed to go test -bench")
	fs.StringVar(&cfg.benchtime, "benchtime", "300x", "benchtime passed to go test")
	fs.IntVar(&cfg.count, "count", 3,
		"go test -count for the fast benchmarks; duplicate results merge by min ns/op, damping scheduler noise before the speedup gates")
	fs.StringVar(&cfg.heavyBench, "heavy-bench", "^BenchmarkServerUnderScenario$",
		"benchmark regex for the second, slower pass (empty disables it)")
	fs.StringVar(&cfg.heavyBenchtime, "heavy-benchtime", "20x", "benchtime for the heavy pass")
	fs.StringVar(&cfg.overloadBench, "overload-bench", "^BenchmarkGateCompare$",
		"benchmark regex for the wall-clock overload pass, run once (empty disables it)")
	fs.StringVar(&cfg.overloadBenchtime, "overload-benchtime", "1x", "benchtime for the overload pass")
	fs.StringVar(&cfg.pkgs, "pkgs", "./...", "packages passed to go test")
	fs.StringVar(&cfg.out, "out", "", "write the JSON snapshot to this path (default stdout)")
	fs.StringVar(&cfg.input, "input", "", "parse this captured `go test -bench` output instead of running go test")
	fs.BoolVar(&cfg.check, "check", false, "enforce the decide perf gates (0 allocs/op scan, min speedups)")
	fs.Float64Var(&cfg.minSpeedup, "min-speedup", 2.0,
		"minimum BenchmarkDecide speedup over the same run's naive baseline")
	fs.Float64Var(&cfg.minMemReduction, "min-mem-reduction", 10.0,
		"minimum BenchmarkPoolManyStreams bytes-per-stream reduction of the shared engine over the same run's naive per-stream controllers")
	fs.Float64Var(&cfg.minNetBatchSpeedup, "min-net-batch-speedup", 2.0,
		"minimum BenchmarkNetServe decisions/s amplification of batch64 over the same run's single-decide round trips")
	fs.Float64Var(&cfg.minBinwireSpeedup, "min-binwire-speedup", 10.0,
		"minimum BenchmarkNetServe decisions/s amplification of the binary transport over the same run's single-request JSON decides")
	fs.Float64Var(&cfg.minAdaptiveSLOGain, "min-adaptive-slo-gain", 0.0,
		"minimum BenchmarkGateCompare SLO-attainment gain (percentage points) of the adaptive gate over the same run's static gate")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var text string
	if cfg.input != "" {
		b, err := os.ReadFile(cfg.input)
		if err != nil {
			return err
		}
		text = string(b)
	} else {
		// Two passes: the microsecond-scale decide/serve benchmarks run
		// -count times each (min-merged below), the millisecond-scale
		// scenario benchmarks once with a smaller benchtime.
		fast, err := goTestBench(cfg.bench, cfg.benchtime, cfg.count, cfg.pkgs)
		if err != nil {
			return err
		}
		text = fast
		if cfg.heavyBench != "" {
			heavy, err := goTestBench(cfg.heavyBench, cfg.heavyBenchtime, 1, cfg.pkgs)
			if err != nil {
				return err
			}
			text += "\n" + heavy
		}
		// The overload pass runs once: each iteration drives a fixed
		// wall-clock schedule, so repeating it buys no noise damping —
		// the slo% metric is a property of the schedule, not the host.
		if cfg.overloadBench != "" {
			overload, err := goTestBench(cfg.overloadBench, cfg.overloadBenchtime, 1, cfg.pkgs)
			if err != nil {
				return err
			}
			text += "\n" + overload
		}
	}

	entries, err := parseBenchOutput(text)
	if err != nil {
		return err
	}
	entries = mergeMin(entries)
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark results found")
	}
	entries = append(entries, derived(entries)...)

	js, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, js, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d entries to %s\n", len(entries), cfg.out)
	} else {
		stdout.Write(js)
	}

	if cfg.check {
		if err := checkGates(entries, cfg.minSpeedup, cfg.minMemReduction, cfg.minNetBatchSpeedup, cfg.minBinwireSpeedup, cfg.minAdaptiveSLOGain); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "perf gates passed")
	}
	return nil
}

// goTestBench runs one `go test -bench` pass and returns its output.
func goTestBench(bench, benchtime string, count int, pkgs string) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), pkgs}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// mergeMin collapses repeated results for one benchmark (-count > 1) into
// the fastest run: min ns/op is the standard noise-damping estimator, and
// it is applied symmetrically to the naive baseline and its replacements,
// so the derived speedups compare best case against best case.
func mergeMin(entries []Entry) []Entry {
	byName := map[string]int{}
	var out []Entry
	for _, e := range entries {
		if i, ok := byName[e.Name]; ok {
			if e.NsPerOp < out[i].NsPerOp {
				out[i] = e
			}
			continue
		}
		byName[e.Name] = len(out)
		out = append(out, e)
	}
	return out
}

// benchLine matches one `go test -bench` result line: name, iterations,
// ns/op, then any sequence of "<value> <unit>" pairs (-benchmem columns and
// custom b.ReportMetric units).
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.e+]+) ns/op(.*)$`)

// metricPair matches one trailing "<value> <unit>" column.
var metricPair = regexp.MustCompile(`([0-9.e+-]+) (\S+)`)

// procSuffix is the -GOMAXPROCS decoration go test appends to parallel-
// capable benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts benchmark entries from `go test -bench` output,
// ignoring every non-benchmark line (package headers, PASS/ok, etc.).
func parseBenchOutput(text string) ([]Entry, error) {
	var out []Entry
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %v", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		e := Entry{Name: procSuffix.ReplaceAllString(m[1], ""), Iterations: iters, NsPerOp: ns}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch pair[2] {
			case "B/op":
				b := v
				e.BytesPerOp = &b
			case "allocs/op":
				a := v
				e.AllocsPerOp = &a
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[pair[2]] = v
			}
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// find returns the entry with the given normalized name.
func find(entries []Entry, name string) *Entry {
	for i := range entries {
		if entries[i].Name == name {
			return &entries[i]
		}
	}
	return nil
}

// derived appends the same-run comparison entries the gates (and the BENCH
// trajectory) read: how much faster the optimized scan is than the naive
// baseline measured moments earlier, and how many times fewer bytes per
// stream the shared-engine stream table costs than one controller per
// stream.
func derived(entries []Entry) []Entry {
	var out []Entry
	naive := find(entries, "BenchmarkDecide/naive")
	scan := find(entries, "BenchmarkDecide/uncached")
	if naive != nil && scan != nil && scan.NsPerOp > 0 {
		out = append(out, Entry{
			Name:    "derived/decide-speedup-uncached-vs-naive",
			Metrics: map[string]float64{"x": naive.NsPerOp / scan.NsPerOp},
		})
	}
	shared := find(entries, "BenchmarkPoolManyStreams/shared-engine")
	perCtl := find(entries, "BenchmarkPoolManyStreams/naive-controllers")
	if shared != nil && perCtl != nil &&
		shared.Metrics["bytes/stream"] > 0 && perCtl.Metrics["bytes/stream"] > 0 {
		out = append(out, Entry{
			Name:    "derived/manystreams-bytes-reduction",
			Metrics: map[string]float64{"x": perCtl.Metrics["bytes/stream"] / shared.Metrics["bytes/stream"]},
		})
	}
	netSingle := find(entries, "BenchmarkNetServe/decide")
	netBatch := find(entries, "BenchmarkNetServe/batch64")
	if netSingle != nil && netBatch != nil &&
		netSingle.Metrics["decisions/s"] > 0 && netBatch.Metrics["decisions/s"] > 0 {
		out = append(out, Entry{
			Name:    "derived/netserve-batch-speedup",
			Metrics: map[string]float64{"x": netBatch.Metrics["decisions/s"] / netSingle.Metrics["decisions/s"]},
		})
	}
	netBinary := find(entries, "BenchmarkNetServe/binary")
	if netSingle != nil && netBinary != nil &&
		netSingle.Metrics["decisions/s"] > 0 && netBinary.Metrics["decisions/s"] > 0 {
		out = append(out, Entry{
			Name:    "derived/netserve-binwire-speedup",
			Metrics: map[string]float64{"x": netBinary.Metrics["decisions/s"] / netSingle.Metrics["decisions/s"]},
		})
	}
	// Adaptive-vs-static SLO attainment is a difference, not a ratio: the
	// static gate's slo% can legitimately be near zero under deep overload,
	// so percentage points are the stable unit.
	gateStatic := find(entries, "BenchmarkGateCompare/static")
	gateAdaptive := find(entries, "BenchmarkGateCompare/adaptive")
	if gateStatic != nil && gateAdaptive != nil {
		_, okS := gateStatic.Metrics["slo%"]
		_, okA := gateAdaptive.Metrics["slo%"]
		if okS && okA {
			out = append(out, Entry{
				Name:    "derived/adaptive-slo-gain",
				Metrics: map[string]float64{"pp": gateAdaptive.Metrics["slo%"] - gateStatic.Metrics["slo%"]},
			})
		}
	}
	return out
}

// checkGates enforces the decide-path perf, stream-table memory, and
// network-batching contracts on a parsed snapshot.
func checkGates(entries []Entry, minSpeedup, minMemReduction, minNetBatchSpeedup, minBinwireSpeedup, minAdaptiveSLOGain float64) error {
	scan := find(entries, "BenchmarkDecide/uncached")
	if scan == nil {
		return fmt.Errorf("gate: BenchmarkDecide/uncached missing from results")
	}
	if scan.AllocsPerOp == nil {
		return fmt.Errorf("gate: BenchmarkDecide/uncached has no allocs/op (run with -benchmem)")
	}
	if *scan.AllocsPerOp != 0 {
		return fmt.Errorf("gate: BenchmarkDecide/uncached allocates %g/op, want 0", *scan.AllocsPerOp)
	}
	speedup := find(entries, "derived/decide-speedup-uncached-vs-naive")
	if speedup == nil {
		return fmt.Errorf("gate: derived/decide-speedup-uncached-vs-naive missing (need BenchmarkDecide naive/uncached in one run)")
	}
	if x := speedup.Metrics["x"]; x < minSpeedup {
		return fmt.Errorf("gate: derived/decide-speedup-uncached-vs-naive = %.2fx, want >= %.2fx", x, minSpeedup)
	}
	mem := find(entries, "derived/manystreams-bytes-reduction")
	if mem == nil {
		return fmt.Errorf("gate: derived/manystreams-bytes-reduction missing (need BenchmarkPoolManyStreams shared-engine/naive-controllers in one run)")
	}
	if x := mem.Metrics["x"]; x < minMemReduction {
		return fmt.Errorf("gate: derived/manystreams-bytes-reduction = %.2fx, want >= %.2fx", x, minMemReduction)
	}
	net := find(entries, "derived/netserve-batch-speedup")
	if net == nil {
		return fmt.Errorf("gate: derived/netserve-batch-speedup missing (need BenchmarkNetServe decide/batch64 in one run)")
	}
	if x := net.Metrics["x"]; x < minNetBatchSpeedup {
		return fmt.Errorf("gate: derived/netserve-batch-speedup = %.2fx, want >= %.2fx", x, minNetBatchSpeedup)
	}
	binwire := find(entries, "derived/netserve-binwire-speedup")
	if binwire == nil {
		return fmt.Errorf("gate: derived/netserve-binwire-speedup missing (need BenchmarkNetServe decide/binary in one run)")
	}
	if x := binwire.Metrics["x"]; x < minBinwireSpeedup {
		return fmt.Errorf("gate: derived/netserve-binwire-speedup = %.2fx, want >= %.2fx", x, minBinwireSpeedup)
	}
	binSrv := find(entries, "BenchmarkBinaryServerDecide")
	if binSrv == nil {
		return fmt.Errorf("gate: BenchmarkBinaryServerDecide missing from results")
	}
	if binSrv.AllocsPerOp == nil {
		return fmt.Errorf("gate: BenchmarkBinaryServerDecide has no allocs/op (run with -benchmem)")
	}
	if *binSrv.AllocsPerOp != 0 {
		return fmt.Errorf("gate: BenchmarkBinaryServerDecide allocates %g/op, want 0", *binSrv.AllocsPerOp)
	}
	gain := find(entries, "derived/adaptive-slo-gain")
	if gain == nil {
		return fmt.Errorf("gate: derived/adaptive-slo-gain missing (need BenchmarkGateCompare static/adaptive in one run)")
	}
	if pp := gain.Metrics["pp"]; pp < minAdaptiveSLOGain {
		return fmt.Errorf("gate: derived/adaptive-slo-gain = %+.1f pp, want >= %+.1f pp", pp, minAdaptiveSLOGain)
	}
	return nil
}
