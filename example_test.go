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
