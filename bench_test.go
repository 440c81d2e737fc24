package alert

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artifact) and reports the headline shape
// metrics via b.ReportMetric, so `go test -bench=. -benchmem` doubles as a
// reproduction run. Benchmarks use the reduced grid; `cmd/experiments`
// regenerates the full-scale numbers recorded in EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/experiment"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// runnerConfig builds a large-stream runner config for micro-benchmarks.
func runnerConfig(prof *dnn.ProfileTable, spec core.Spec) runner.Config {
	return runner.Config{
		Prof:      prof,
		Scenario:  contention.Memory,
		Spec:      spec,
		NumInputs: 1 << 20,
		Seed:      1,
	}
}

func benchScale() experiment.Scale {
	sc := experiment.QuickScale()
	sc.Inputs = 100
	return sc
}

// BenchmarkFig2TradeoffZoo regenerates the 42-network tradeoff study.
func BenchmarkFig2TradeoffZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LatencySpan, "latSpanX")
		b.ReportMetric(res.ErrorSpan, "errSpanX")
		b.ReportMetric(res.EnergySpan, "energySpanX")
	}
}

// BenchmarkFig3PowerSweep regenerates the ResNet50 power sweep.
func BenchmarkFig3PowerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxEnergyCap, "peakW")
		b.ReportMetric(res.MaxOverMin, "peakOverMin")
		b.ReportMetric(res.SpeedRatio, "speed100/40")
	}
}

// BenchmarkFig4Variance regenerates the contention-free latency variance
// study.
func BenchmarkFig4Variance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigVariance(false, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Contention regenerates the co-located latency variance study.
func BenchmarkFig5Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigVariance(true, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SingleLayer regenerates the single-layer-vs-combined oracle
// study.
func BenchmarkFig6SingleLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AppOverCombined, "appOverCombined")
		b.ReportMetric(res.SysInfeasibleBelow, "sysFeasibleFromS")
	}
}

// benchCell runs one Table 4 cell and reports ALERT's normalized value.
func benchCell(b *testing.B, obj core.Objective) {
	key := experiment.CellKey{
		Platform: "CPU1",
		Task:     dnn.ImageClassification,
		Scenario: contention.Memory,
	}
	for i := 0; i < b.N; i++ {
		cell, err := experiment.RunCell(key, obj, benchScale(), experiment.CellOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.Norm[experiment.SchemeALERT].NormValue, "ALERTnorm")
		b.ReportMetric(cell.Norm[experiment.SchemeOracle].NormValue, "Oraclenorm")
		b.ReportMetric(cell.Norm[experiment.SchemeAppOnly].NormValue, "AppOnlynorm")
	}
}

// BenchmarkTable4MinimizeEnergy regenerates one representative cell of
// Table 4's left half (CPU1, Sparse ResNet, Memory).
func BenchmarkTable4MinimizeEnergy(b *testing.B) {
	benchCell(b, core.MinimizeEnergy)
}

// BenchmarkTable4MinimizeError regenerates one representative cell of
// Table 4's right half.
func BenchmarkTable4MinimizeError(b *testing.B) {
	benchCell(b, core.MaximizeAccuracy)
}

// BenchmarkFig7Summary regenerates Figure 7's cross-scheme summary over a
// reduced Table 4 (GPU rows only, to bound the runtime).
func BenchmarkFig7Summary(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		cell, err := experiment.RunCell(experiment.CellKey{
			Platform: "GPU", Task: dnn.ImageClassification, Scenario: contention.Compute,
		}, core.MinimizeEnergy, sc, experiment.CellOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.Norm[experiment.SchemeALERT].NormValue, "ALERTnormGPU")
	}
}

// BenchmarkTable5CandidateSets regenerates one Table 5 row.
func BenchmarkTable5CandidateSets(b *testing.B) {
	key := experiment.CellKey{
		Platform: "CPU2",
		Task:     dnn.ImageClassification,
		Scenario: contention.Memory,
	}
	for i := 0; i < b.N; i++ {
		cell, err := experiment.RunCell(key, core.MinimizeEnergy, benchScale(),
			experiment.CellOptions{Schemes: experiment.Table5Schemes})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.Norm[experiment.SchemeALERT].NormValue, "ALERT")
		b.ReportMetric(cell.Norm[experiment.SchemeALERTAny].NormValue, "ALERTAny")
		b.ReportMetric(cell.Norm[experiment.SchemeALERTTrad].NormValue, "ALERTTrad")
	}
}

// BenchmarkFig8Whiskers regenerates the ALERT/Oracle/OracleStatic whisker
// comparison for one (platform, task) subplot.
func BenchmarkFig8Whiskers(b *testing.B) {
	sc := benchScale()
	schemes := []string{experiment.SchemeALERT, experiment.SchemeOracle}
	key := experiment.CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Compute}
	for i := 0; i < b.N; i++ {
		cell, err := experiment.RunCell(key, core.MinimizeEnergy, sc,
			experiment.CellOptions{Schemes: schemes})
		if err != nil {
			b.Fatal(err)
		}
		_ = cell
	}
}

// BenchmarkFig9DynamicTrace regenerates the burst-reaction trace.
func BenchmarkFig9DynamicTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig9(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		alert := res.Traces[0]
		b.ReportMetric(alert.MeanQuality(res.BurstStart, res.BurstEnd), "burstQuality")
		b.ReportMetric(alert.AnytimeShare(res.BurstStart, res.BurstEnd), "anytimeShare")
	}
}

// BenchmarkFig10Probabilistic regenerates the ALERT-vs-ALERT* perplexity
// comparison under memory contention.
func BenchmarkFig10Probabilistic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig10(contention.Memory, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		std := res.Groups[0]
		b.ReportMetric(std.Alert.Mean, "ALERTppl")
		b.ReportMetric(std.AlertStar.Mean, "ALERTstarppl")
	}
}

// BenchmarkFig11XiDistribution regenerates the slowdown-factor histograms.
func BenchmarkFig11XiDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig11(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Histograms[2].MuHat, "memoryMuHat")
	}
}

// BenchmarkControllerDecision measures the per-input scheduling cost — §4
// reports 0.6-1.7% of an inference; at ~100ms inferences that allows up to
// ~1ms, and this decision loop runs in microseconds.
func BenchmarkControllerDecision(b *testing.B) {
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		b.Fatal(err)
	}
	ctl := core.NewEngine(prof, core.DefaultOptions()).NewSession()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := ctl.Decide(spec)
		ctl.Observe(sim.Outcome{ObservedXi: 1.1, IdlePower: 6, CapApplied: prof.Caps[d.Cap]})
	}
}

// BenchmarkControllerDecisionZoo measures decision cost over the 42-model
// zoo — the large-configuration-space case the global slowdown factor is
// designed for.
func BenchmarkControllerDecisionZoo(b *testing.B) {
	prof, err := dnn.Profile(platform.CPU2(), dnn.ImageNetZoo(1))
	if err != nil {
		b.Fatal(err)
	}
	ctl := core.NewEngine(prof, core.DefaultOptions()).NewSession()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := ctl.Decide(spec)
		ctl.Observe(sim.Outcome{ObservedXi: 1.05, IdlePower: 20, CapApplied: prof.Caps[d.Cap]})
	}
}

// BenchmarkServeThroughput measures the concurrent serving layer's
// decisions/sec at 1 shard (the serial baseline) and at one shard per core.
// Shards never contend on anything but atomic counters, so on a multi-core
// runner the per-core variant should deliver ≥ 2× the single-shard rate;
// the decisions/sec metric makes the ratio directly readable from the
// output.
func BenchmarkServeThroughput(b *testing.B) {
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	bench := func(b *testing.B, shards int) {
		srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		var stream atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Each benchmark goroutine is one inference stream, pinned to
			// a shard, running the paper's decide → observe loop.
			s := int(stream.Add(1))
			for pb.Next() {
				d, _ := srv.Decide(s, spec)
				srv.Observe(s, Feedback{Decision: d, Latency: 1.05 * srv.prof.At(d.Model, d.Cap), CompletedStage: -1})
			}
		})
		b.StopTimer()
		// Rate over the timed region only; the counters' own uptime also
		// includes profiling/setup, which would flatten the shard ratio at
		// small b.N.
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "decisions/s")
		}
	}
	b.Run("shards=1", func(b *testing.B) { bench(b, 1) })
	b.Run(fmt.Sprintf("shards=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		bench(b, runtime.GOMAXPROCS(0))
	})
}

// BenchmarkServerUnderScenario measures the serving layer beyond steady
// state: multi-stream decide → observe traffic whose disturbances replay a
// compiled environment scenario (phase-switching contention, thermal
// throttling ramps, bursty arrival shaping). Reported deadline-miss rate
// and decisions/sec capture how throughput and SLO behaviour move when the
// environment does — the trajectory steady-state benchmarks cannot see.
func BenchmarkServerUnderScenario(b *testing.B) {
	const (
		streams = 4
		inputs  = 150
	)
	plat := CPU1()
	prof, err := dnn.Profile(plat, ImageCandidates())
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	for _, name := range []string{"phased", "thermal", "bursty"} {
		b.Run(name, func(b *testing.B) {
			sspec, err := scenario.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := scenario.Compile(sspec, plat, inputs, spec.Deadline, 42)
			if err != nil {
				b.Fatal(err)
			}
			var misses, total atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv, err := NewServer(plat, ImageCandidates(), ServerOptions{Shards: streams})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for s := 0; s < streams; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						env := sim.NewEnv(prof, tr.Source(), int64(1000+s))
						stream := workload.NewImageStream(inputs, int64(s)*13+1)
						cur := spec
						for {
							in, ok := stream.Next()
							if !ok {
								break
							}
							if next := tr.SpecFor(in.ID, spec); next != cur {
								cur = next
							}
							d, _ := srv.Decide(s, cur)
							out := env.Step(sim.Decision{
								Model:       d.Model,
								Cap:         d.Cap,
								PlannedStop: d.PlannedStop,
								Overhead:    d.Overhead,
							}, in, cur.Deadline, cur.Deadline)
							srv.Observe(s, Feedback{
								Decision:       d,
								Latency:        out.Latency,
								CompletedStage: out.Stage,
								IdlePowerW:     out.IdlePower,
							})
							total.Add(1)
							if !out.DeadlineMet {
								misses.Add(1)
							}
						}
					}(s)
				}
				wg.Wait()
				b.StopTimer()
				srv.Close()
				b.StartTimer()
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(total.Load())/sec, "decisions/s")
			}
			if n := total.Load(); n > 0 {
				b.ReportMetric(float64(misses.Load())/float64(n), "missRate")
			}
		})
	}
}

// BenchmarkServeBatch measures batched dispatch through the public API.
func BenchmarkServeBatch(b *testing.B) {
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	reqs := make([]BatchRequest, 64)
	for i := range reqs {
		reqs[i] = BatchRequest{Stream: i, Spec: spec}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.DecideBatch(reqs)
	}
}

// BenchmarkKalmanObserve measures the estimator update alone.
func BenchmarkKalmanObserve(b *testing.B) {
	prof, _ := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	ctl := core.NewEngine(prof, core.DefaultOptions()).NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Observe(sim.Outcome{ObservedXi: 1.0 + float64(i%7)*0.01, IdlePower: 6, CapApplied: 30})
	}
}

// BenchmarkOracleDecision measures the clairvoyant baseline's per-input
// exhaustive search, for comparison with ALERT's.
func BenchmarkOracleDecision(b *testing.B) {
	prof, _ := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	cfg := runnerConfig(prof, spec)
	env := cfg.NewEnv()
	oracle := baselines.NewOracle(spec)
	stream := cfg.NewStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, ok := stream.Next()
		if !ok {
			b.StopTimer()
			stream = cfg.NewStream()
			env = cfg.NewEnv()
			b.StartTimer()
			in, _ = stream.Next()
		}
		d := oracle.Decide(env, in, spec.Deadline)
		env.Step(d, in, spec.Deadline, spec.Deadline)
	}
}

// BenchmarkSimStep measures the raw simulator step.
func BenchmarkSimStep(b *testing.B) {
	prof, _ := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	cfg := runnerConfig(prof, spec)
	env := cfg.NewEnv()
	stream := cfg.NewStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, ok := stream.Next()
		if !ok {
			b.StopTimer()
			stream = cfg.NewStream()
			b.StartTimer()
			in, _ = stream.Next()
		}
		env.Step(sim.Decision{Model: i % prof.NumModels(), Cap: i % prof.NumCaps()},
			in, spec.Deadline, spec.Deadline)
	}
}
