package alert_test

import (
	"fmt"
	"sync"

	"github.com/alert-project/alert"
)

// ExampleScheduler is the README quickstart: one scheduler serving one
// inference stream, deciding a model + power cap per input and learning
// from each measurement. Latencies here are synthetic — the environment is
// a steady 1.3× slower than the profiling run — so the example is
// deterministic; in a real deployment they come from the clock around the
// inference call. The traditional (non-anytime) candidates keep the
// synthetic executor trivial; anytime early-stopping is exercised
// end-to-end by ExampleSimulate's substrate.
func ExampleScheduler() {
	var models []*alert.Model
	for _, m := range alert.ImageCandidates() {
		if !m.IsAnytime() {
			models = append(models, m)
		}
	}
	sched, err := alert.NewScheduler(alert.CPU1(), models, alert.Options{})
	if err != nil {
		panic(err)
	}
	spec := alert.Spec{
		Objective:    alert.MinimizeEnergy,
		Deadline:     0.1, // seconds
		AccuracyGoal: 0.93,
	}
	for i := 0; i < 50; i++ {
		d, est := sched.Decide(spec)
		// The real system would run models[d.Model] under caps[d.Cap] and
		// time the inference; here the measurement is the candidate's
		// profiled latency (the estimate's mean over the current slowdown
		// belief) scaled by the true 1.3× slowdown.
		mu, _ := sched.XiEstimate()
		measured := 1.3 * est.LatMean / mu
		sched.Observe(alert.Feedback{Decision: d, Latency: measured, CompletedStage: -1})
	}
	mu, _ := sched.XiEstimate()
	fmt.Printf("slowdown estimate after 50 inputs: %.2f\n", mu)
	// Output: slowdown estimate after 50 inputs: 1.30
}

// ExampleServer serves multiple concurrent inference streams through the
// sharded pool: per-stream behaviour is identical to a dedicated
// Scheduler, and the counters aggregate across streams.
func ExampleServer() {
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 2})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.1, AccuracyGoal: 0.93}
	for i := 0; i < 10; i++ {
		for stream := 0; stream < 2; stream++ {
			d, _ := srv.Decide(stream, spec)
			srv.Observe(stream, alert.Feedback{Decision: d, Latency: 0.025, CompletedStage: -1})
		}
	}
	stats := srv.Stats()
	fmt.Printf("shards=%d decisions=%d\n", srv.Shards(), stats.Decisions)
	// Output: shards=2 decisions=20
}

// ExampleServer_streams drives many concurrent inference streams through
// one Server — one shared decision engine, one private Kalman filter state
// per stream in a sharded stream table. Stream s pins to shard s mod 4 for
// FIFO ordering, but every stream learns its own slowdown: even streams run
// near the profile (ξ ≈ 1.05), odd streams are heavily contended (ξ ≈ 1.6),
// and each stream's estimate and decisions are what a dedicated Scheduler
// would produce, however the goroutines interleave. The closing batch
// decides for every stream in one call, results in request order.
func ExampleServer_streams() {
	plat := alert.CPU1()
	srv, err := alert.NewServer(plat, alert.ImageCandidates(), alert.ServerOptions{Shards: 4})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.120, AccuracyGoal: 0.93}

	const streams, inputs = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			xi := 1.05
			if stream%2 == 1 {
				xi = 1.6
			}
			for i := 0; i < inputs; i++ {
				d, _ := srv.Decide(stream, spec)
				// Stand-in for running the model: the profiled time at the
				// decided cap scaled by the stream's slowdown.
				measured := xi * srv.Models()[d.Model].RefLatency / plat.Speed(d.CapW)
				srv.Observe(stream, alert.Feedback{Decision: d, Latency: measured, CompletedStage: -1, IdlePowerW: 5})
			}
		}(s)
	}
	wg.Wait()

	reqs := make([]alert.BatchRequest, streams)
	for i := range reqs {
		reqs[i] = alert.BatchRequest{Stream: i, Spec: spec}
	}
	for i, r := range srv.DecideBatch(reqs) {
		mu, sigma := srv.XiEstimate(i)
		fmt.Printf("stream %d  xi=%.3f±%.3f  model=%d cap=%.0fW\n", i, mu, sigma, r.Decision.Model, r.Decision.CapW)
	}
	// Output:
	// stream 0  xi=1.050±0.019  model=2 cap=20W
	// stream 1  xi=1.600±0.019  model=1 cap=18W
	// stream 2  xi=1.050±0.019  model=2 cap=20W
	// stream 3  xi=1.600±0.019  model=1 cap=18W
	// stream 4  xi=1.050±0.019  model=2 cap=20W
	// stream 5  xi=1.600±0.019  model=1 cap=18W
	// stream 6  xi=1.050±0.019  model=2 cap=20W
	// stream 7  xi=1.600±0.019  model=1 cap=18W
}

// ExampleSimulate exercises the scheduler end-to-end on the simulation
// substrate — no GPUs, RAPL access, or trained networks required.
func ExampleSimulate() {
	rep, err := alert.Simulate(alert.SimConfig{
		Spec: alert.Spec{
			Objective:    alert.MinimizeEnergy,
			Deadline:     0.12,
			AccuracyGoal: 0.90,
		},
		Contention: alert.MemoryContention,
		Inputs:     200,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("inputs=%d violations=%.1f%% misses=%.1f%%\n",
		rep.Inputs, 100*rep.ViolationRate, 100*rep.DeadlineMissRate)
	// Output: inputs=200 violations=0.0% misses=0.0%
}

// ExampleSimulate_anytime maximizes accuracy under a 200 ms deadline on
// CPU1 with memory contention, sweeping the power budget, for three
// candidate sets: traditional networks only, the anytime nest only, and
// both (§3.5). The paper expects the mixed set to get the best of both.
// Here the anytime nest wins at every budget, and the mixed set stays
// closer to the traditional-only set, most of all at tight budgets: the
// same loss the minimize-error rows of EXPERIMENTS.md record.
func ExampleSimulate_anytime() {
	var trad, anytime []*alert.Model
	full := alert.ImageCandidates()
	for _, m := range full {
		if m.IsAnytime() {
			anytime = append(anytime, m)
		} else {
			trad = append(trad, m)
		}
	}
	sets := []struct {
		name   string
		models []*alert.Model
	}{
		{"traditional-only", trad},
		{"anytime-only", anytime},
		{"mixed (ALERT)", full},
	}

	const deadline = 0.200
	fmt.Printf("%-10s", "budget")
	for _, s := range sets {
		fmt.Printf(" %18s", s.name)
	}
	fmt.Println()
	for _, watts := range []float64{12, 16, 20, 26, 34, 45} {
		fmt.Printf("%7.0f W ", watts)
		for _, set := range sets {
			rep, err := alert.Simulate(alert.SimConfig{
				Platform: alert.CPU1(),
				Models:   set.models,
				Spec: alert.Spec{
					Objective:    alert.MaximizeAccuracy,
					Deadline:     deadline,
					EnergyBudget: watts * deadline,
				},
				Contention: alert.MemoryContention,
				Inputs:     300,
				Seed:       31,
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %11.2f%% acc.", 100*rep.AvgQuality)
		}
		fmt.Println()
	}
	// Output:
	// budget       traditional-only       anytime-only      mixed (ALERT)
	//      12 W        92.07% acc.       92.57% acc.       92.08% acc.
	//      16 W        92.37% acc.       92.86% acc.       92.38% acc.
	//      20 W        92.77% acc.       93.44% acc.       93.09% acc.
	//      26 W        92.95% acc.       93.92% acc.       93.40% acc.
	//      34 W        93.01% acc.       94.15% acc.       93.36% acc.
	//      45 W        92.72% acc.       94.23% acc.       93.09% acc.
}

// ExampleSimulate_translation is simultaneous-interpretation-style sentence
// prediction (the paper's §1 NLP workload). All words of a sentence share
// one sentence-wide deadline, so a slow word steals budget from every word
// after it — the goal-adjustment path of §3.2 step 2. ALERT compensates
// per word, so a slow word costs no miss.
func ExampleSimulate_translation() {
	// Interpretation must keep up with speech (the paper cites 2-4 s per
	// sentence): a 60 ms budget per word.
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.060, AccuracyGoal: 0.66}
	for _, run := range []struct {
		label      string
		contention alert.Contention
	}{
		{"quiet", alert.NoContention},
		{"compute", alert.ComputeContention},
		{"memory", alert.MemoryContention},
	} {
		slowWords := 0
		rep, err := alert.Simulate(alert.SimConfig{
			Platform:   alert.CPU1(),
			Models:     alert.SentenceCandidates(),
			Spec:       spec,
			Contention: run.contention,
			Inputs:     2000, // ~95 sentences
			Seed:       23,
			Trace: func(s alert.TraceSample) {
				// A slow word consumed over 1.5x its share; the next words
				// run against a tightened goal.
				if s.Latency > 1.5*spec.Deadline {
					slowWords++
				}
			},
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s: %d words, avg %.1fms/word, %.2fJ/word, perplexity %.0f, misses %.1f%%, slow words %d\n",
			run.label, rep.Inputs, 1000*rep.AvgLatency, rep.AvgEnergy, alert.PerplexityFromQuality(rep.AvgQuality),
			100*rep.DeadlineMissRate, slowWords)
	}
	// Output:
	// quiet   : 2028 words, avg 25.1ms/word, 0.37J/word, perplexity 156, misses 0.0%, slow words 0
	// compute : 2028 words, avg 39.3ms/word, 0.45J/word, perplexity 150, misses 0.0%, slow words 1
	// memory  : 2028 words, avg 38.8ms/word, 0.45J/word, perplexity 152, misses 0.0%, slow words 19
}

// ExampleSimulate_videopipeline is a motion-tracking-style camera pipeline
// (the paper's §1 motivating workload) that must classify every frame
// before the next one arrives, under a power budget, while a memory-hungry
// job runs alongside it for a while — the Figure 9 scenario. When the
// burst (frames marked *) hits, ALERT leaves SparseResNet-M for the smaller
// S and XS networks; a few frames after it ends, it is back on M.
func ExampleSimulate_videopipeline() {
	// 10 fps with a 100 ms frame budget and a 30 W power envelope.
	const deadline, powerEnvelopeW = 0.100, 30
	burst := alert.Burst{Start: 40, End: 110, Scenario: alert.MemoryContention}
	var lastModel string
	rep, err := alert.Simulate(alert.SimConfig{
		Platform: alert.CPU1(),
		Models:   alert.ImageCandidates(),
		Spec: alert.Spec{
			Objective:    alert.MaximizeAccuracy,
			Deadline:     deadline,
			EnergyBudget: powerEnvelopeW * deadline,
		},
		Bursts: []alert.Burst{burst},
		Inputs: 150,
		Seed:   11,
		Trace: func(s alert.TraceSample) {
			// Transitions and a sparse heartbeat rather than all frames.
			if s.ModelName != lastModel || s.Input%25 == 0 {
				mark := " "
				if s.Contention {
					mark = "*"
				}
				fmt.Printf("frame %3d %s %-16s cap=%4.1fW latency=%5.1fms accuracy=%.3f\n",
					s.Input, mark, s.ModelName, s.Decision.CapW, 1000*s.Latency, s.Quality)
				lastModel = s.ModelName
			}
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d frames, burst on [%d,%d): avg accuracy %.1f%%, avg power %.1fW, misses %.1f%%\n",
		rep.Inputs, burst.Start, burst.End,
		100*rep.AvgQuality, rep.AvgEnergy/deadline, 100*rep.DeadlineMissRate)
	// Output:
	// frame   0   SparseResNet-S   cap=45.0W latency= 41.4ms accuracy=0.919
	// frame   2   SparseResNet-M   cap=37.5W latency= 81.7ms accuracy=0.931
	// frame  25   SparseResNet-M   cap=35.0W latency= 77.5ms accuracy=0.931
	// frame  41 * SparseResNet-S   cap=15.0W latency=100.1ms accuracy=0.005
	// frame  43 * SparseResNet-XS  cap=45.0W latency= 33.6ms accuracy=0.902
	// frame  44 * SparseResNet-S   cap=37.5W latency= 69.6ms accuracy=0.919
	// frame  50 * SparseResNet-S   cap=40.0W latency= 57.4ms accuracy=0.919
	// frame  69 * SparseResNet-XS  cap=45.0W latency= 34.5ms accuracy=0.902
	// frame  71 * SparseResNet-S   cap=35.0W latency= 62.5ms accuracy=0.919
	// frame  75 * SparseResNet-S   cap=27.5W latency= 71.1ms accuracy=0.919
	// frame 100 * SparseResNet-S   cap=32.5W latency= 70.7ms accuracy=0.919
	// frame 117   SparseResNet-M   cap=35.0W latency= 81.6ms accuracy=0.931
	// frame 125   SparseResNet-M   cap=37.5W latency= 79.6ms accuracy=0.931
	// 150 frames, burst on [40,110): avg accuracy 90.6%, avg power 25.0W, misses 2.0%
}
