// Command alertbench is the repository's benchmark: ALERT's per-input loop
// — Decide, run the DNN (simulated), Observe — driven as closed loops over
// the real wire, through the whole stack in one process:
//
//	alert.NewServer → netserve static gate → HTTP + binwire on loopback → client
//
// It claims no gain; it is the ruler later claims are measured with.
// BENCHMARK.json at the repository root names the workloads and metrics;
// bench/README.md says why each was chosen and how the layers interact.
//
//	alertbench --workload loop-binwire --seed 1 --seconds 20 --trace 0   # one run, end-to-end metrics
//	alertbench --workload loop-binwire --seed 1 --seconds 20 --trace 1   # one run, per-layer metrics
//	alertbench -seed 1 -out bench/out/latest.json                        # every workload, both ways
//	alertbench -compare a.json b.json                                    # two -out files against the bounds
//	alertbench -manifest                                                 # print BENCHMARK.json
//
// A single run prints a header line, every metric by name and unit, and as
// its last line one JSON object {correct, attempted, failed, metrics}. It
// exits non-zero when a check fails: a rejected or errored loop, a wire
// decision that differs from the reference scorer's, or server counters
// that do not add up to the loops issued.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runSeconds is the measured interval BENCHMARK.json asks the driver for.
const runSeconds = 20

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "alertbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("alertbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all of them, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed for the scenario trace and every driver's inputs and noise")
	seconds := fs.Int("seconds", runSeconds, "measured interval per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, probes and per-layer metrics")
	out := fs.String("out", "", "with all workloads: write the results to this JSON file")
	outDir := fs.String("trace-dir", filepath.Join("bench", "out"), "where a traced run writes trace-<workload>.jsonl")
	compare := fs.Bool("compare", false, "compare two -out files (a.json b.json) against the end-to-end bounds")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *manifest:
		return writeManifest(stdout)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	total := time.Duration(*seconds) * time.Second

	if *workload != "" {
		w, err := workloadByName(*workload)
		if err != nil {
			return err
		}
		res, err := runWorkload(w, *seed, total, *trace == 1, fullSizing, *outDir)
		if err != nil {
			return err
		}
		return res.print(stdout)
	}

	file := resultFile{Header: newHeader(*seed, total), Workloads: map[string]*result{}}
	bad := 0
	for _, w := range workloads {
		res, err := runWorkload(w, *seed, total, false, fullSizing, *outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		traced, err := runWorkload(w, *seed, total, true, fullSizing, *outDir)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		res.PerLayer = traced.PerLayer
		res.Correct = res.Correct && traced.Correct
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Notes = append(res.Notes, traced.Notes...)
		if !res.Correct {
			bad++
		}
		file.Workloads[w.Name] = res
		fmt.Fprintf(stdout, "== %s\n", w.Name)
		res.printMetrics(stdout)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workloads failed a check", bad)
	}
	return nil
}

// header identifies the machine and inputs a result came from.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
}

func newHeader(seed int64, total time.Duration) header {
	return header{Seed: seed, Seconds: total.Seconds(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// result is one workload's outcome: one run's for -workload, the untraced
// and traced runs merged for the all-workloads file.
type result struct {
	Header   header `json:"header"`
	Workload string `json:"workload"`
	Wire     string `json:"wire"`
	Streams  int    `json:"streams"`
	Drivers  int    `json:"drivers"`
	// Spec is the base requirement the churn trace varies.
	Spec struct {
		Objective    string  `json:"objective"`
		DeadlineS    float64 `json:"deadline_s"`
		AccuracyGoal float64 `json:"accuracy_goal"`
	} `json:"spec"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"decide_samples,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

type resultFile struct {
	Header    header             `json:"header"`
	Workloads map[string]*result `json:"workloads"`
}

func (res *result) note(format string, args ...any) {
	res.Notes = append(res.Notes, fmt.Sprintf(format, args...))
}

// runWorkload is one run of the driver's contract: set up (several times,
// for a steady setup_s), measure for total, check the outputs, and for a
// traced run probe every layer.
func runWorkload(w workloadDef, seed int64, total time.Duration, traced bool, sz sizing, traceDir string) (*result, error) {
	var r *rig
	var setups []float64
	for k := 0; k < sz.setups; k++ {
		if r != nil {
			r.close()
			r = nil // the next set-up's heap baseline must not count this one
		}
		var err error
		if r, err = setUp(w, seed, traced, sz); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, r.setupS)
	}
	defer r.close()

	res := &result{Header: newHeader(seed, total), Workload: w.Name, Wire: w.wire(), Streams: r.w.Streams, Drivers: r.w.Drivers, Correct: true}
	res.Spec.Objective = "minimize-energy"
	res.Spec.DeadlineS, res.Spec.AccuracyGoal = r.base.Deadline, r.base.AccuracyGoal

	t := r.runTimed(r.st.backendFor(r.w), total, traced)
	for _, d := range r.drivers {
		res.Samples += d.bounds[t.clock.n] - d.bounds[0]
	}
	layer := map[string]float64{}
	if traced {
		r.runMetrics(t, layer)
		// The ceiling: the same drivers and sessions with no wire.
		ceil := r.runTimed(inprocBackend{srv: r.st.srv}, total/8+time.Second/2, false)
		layer["serve.inproc_loops_per_s"] = medianOf(r.windows(ceil), func(w windowStats) float64 { return w.loopsPerS })
	} else {
		res.EndToEnd = r.endToEndMetrics(t, median(setups))
	}

	res.Attempted, res.Failed = r.issued()
	if err := r.conserved(); err != nil {
		res.Correct = false
		res.note("%v", err)
	}
	_, violations, short := r.simStats()
	if short {
		res.Correct = false
		res.note("a driver completed fewer than %d loops: sim_energy_j_per_input covers different inputs", sz.simLoops)
	}
	orc, err := r.runOracle()
	if err != nil {
		return nil, err
	}
	if orc.mismatches > 0 {
		res.Correct = false
		res.Failed += orc.mismatches
		res.note("oracle: %d of %d decisions differ from the reference scorer's; first: %s", orc.mismatches, orc.checked, orc.first)
	}

	if traced {
		probes, probeSpans, err := r.runProbes()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for k, v := range probes {
			layer[k] = v
		}
		layer["loadgen.sim_us_per_loop"] = orc.simUSPerLoop
		layer["loadgen.sim_violation_share"] = violations
		res.PerLayer = layer
		if c := layer["budget.coverage"]; c < 0.9 || c > 1.1 {
			res.note("budget.coverage %.3f is outside 0.9-1.1: the rows do not account for the decide", c)
		}
		var runSpans []span
		dropped := 0
		for _, d := range r.drivers {
			if len(runSpans) < maxSpansWritten {
				runSpans = append(runSpans, d.spans.spans...)
			}
			dropped += d.spans.dropped
		}
		if dropped > 0 {
			res.note("%d spans past the in-memory capacity were dropped", dropped)
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(traceDir, "trace-"+w.Name+".jsonl")
		if err := writeSpans(path, runSpans, probeSpans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (res *result) printMetrics(w io.Writer) {
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		for _, def := range set.defs {
			if v, ok := set.vals[def.Name]; ok {
				fmt.Fprintf(w, "%-36s %16.6g %s\n", def.Name, v, def.Unit)
			}
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// print writes a single run the way the driver reads it: header, metrics,
// and the contract's result object as the last line.
func (res *result) print(w io.Writer) error {
	head, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", head)
	res.printMetrics(w)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	defs, vals := endToEnd, res.EndToEnd
	if res.PerLayer != nil {
		defs, vals = perLayer, res.PerLayer
	}
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.Name)
		}
		line.Metrics[def.Name] = value{v, def.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", last)
	if !res.Correct {
		return fmt.Errorf("%s: a check failed: %v", res.Workload, res.Notes)
	}
	return nil
}

// writeManifest prints BENCHMARK.json from the same tables the runs use,
// so the file and the binary cannot drift (the smoke test compares them).
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, d := range workloads {
		m.Workloads = append(m.Workloads, wl{d.Name, d.Why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// compareFiles prints, per workload x end-to-end metric, both values, the
// relative change and the bound, and fails when b is worse than a by more
// than the bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	load := func(path string) (resultFile, error) {
		var f resultFile
		data, err := os.ReadFile(path)
		if err != nil {
			return f, err
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return f, fmt.Errorf("%s: %w", path, err)
		}
		return f, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	over := 0
	fmt.Fprintf(w, "%-22s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			return fmt.Errorf("%s has no workload %s", pathB, name)
		}
		if !ra.Correct || !rb.Correct || ra.Failed != 0 || rb.Failed != 0 {
			fmt.Fprintf(w, "%-22s failed a check (a: correct=%v failed=%d, b: correct=%v failed=%d)\n",
				name, ra.Correct, ra.Failed, rb.Correct, rb.Failed)
			over++
		}
		for _, def := range endToEnd {
			va, vb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			worse := (vb - va) / va
			if def.Better == "higher" {
				worse = (va - vb) / va
			}
			mark := ""
			if worse > def.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-22s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", name, def.Name, va, vb, 100*worse, 100*def.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d comparisons exceed their bound", over)
	}
	return nil
}
