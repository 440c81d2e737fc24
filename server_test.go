package alert

import (
	"errors"
	"sync"
	"testing"
)

func testSpec() Spec {
	return Spec{Objective: MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.9}
}

// TestServerMatchesScheduler drives the same feedback script through a
// one-shard Server and a plain Scheduler and requires identical decisions —
// the sharding layer must not change per-stream semantics.
func TestServerMatchesScheduler(t *testing.T) {
	sched, err := NewScheduler(CPU1(), ImageCandidates(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec := testSpec()
	for i := 0; i < 40; i++ {
		want, _ := sched.Decide(spec)
		got, _ := srv.Decide(0, spec)
		if got != want {
			t.Fatalf("input %d: server decision %+v, scheduler %+v", i, got, want)
		}
		lat := 1.1 * srv.prof.At(want.Model, want.Cap)
		fb := Feedback{Decision: want, Latency: lat, CompletedStage: -1, IdlePowerW: 5}
		sched.Observe(fb)
		srv.Observe(0, fb)
	}
	mu, _ := sched.XiEstimate()
	muSrv, _ := srv.XiEstimate(0)
	if mu != muSrv {
		t.Errorf("xi diverged: scheduler %.6f, server %.6f", mu, muSrv)
	}
}

// TestServerBurstMatchesScheduler pipelines decide, observe, decide, … for
// two streams through one reused ServerBurst, several rounds per Run, and
// requires each stream's decisions to equal a dedicated Scheduler's: the
// burst applies calls in the order they were added, drops a signal-free
// measurement like Observe does, and Result indexes survive the drop.
func TestServerBurstMatchesScheduler(t *testing.T) {
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := testSpec()
	const streams, runs, depth = 2, 8, 4
	var want [streams][]Decision
	var fbs [streams][]Feedback
	for s := 0; s < streams; s++ {
		sched, err := NewScheduler(CPU1(), ImageCandidates(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs*depth; i++ {
			d, _ := sched.Decide(spec)
			fb := Feedback{Decision: d, Latency: (1 + 0.1*float64((i+s)%4)) * srv.prof.At(d.Model, d.Cap), CompletedStage: -1, IdlePowerW: 5}
			sched.Observe(fb)
			want[s], fbs[s] = append(want[s], d), append(fbs[s], fb)
		}
	}
	b := srv.NewBurst()
	for r := 0; r < runs; r++ {
		b.Reset()
		var at [streams][depth]int
		for k := 0; k < depth; k++ {
			for s := 0; s < streams; s++ {
				b.Observe(s, Feedback{Decision: want[s][0]}) // no latency: carries no signal
				at[s][k] = b.Decide(s, spec)
				b.Observe(s, fbs[s][r*depth+k])
			}
		}
		b.Run()
		for s := 0; s < streams; s++ {
			for k := 0; k < depth; k++ {
				if got := b.Result(at[s][k]).Decision; got != want[s][r*depth+k] {
					t.Fatalf("stream %d input %d: burst decision %+v, scheduler %+v", s, r*depth+k, got, want[s][r*depth+k])
				}
			}
		}
	}
	if st := srv.Stats(); st.Observes != streams*runs*depth {
		t.Errorf("%d observes applied, want %d (signal-free ones dropped)", st.Observes, streams*runs*depth)
	}
}

// TestObserveRefusesForeignDecision: a feedback's model and cap index the
// profile table and can arrive off a wire, so every Observe door reports one
// outside the candidate set as an error — distinct from the silent drop of a
// measurement without signal — and applies nothing.
func TestObserveRefusesForeignDecision(t *testing.T) {
	sched, err := NewScheduler(CPU1(), ImageCandidates(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := srv.NewBurst()
	for _, d := range []Decision{{Model: len(srv.Models())}, {Model: -1}, {Cap: len(srv.PowerCaps())}, {Cap: -1}} {
		fb := Feedback{Decision: d, Latency: 0.1}
		if sched.Observe(fb) == nil || srv.Observe(3, fb) == nil || b.Observe(3, fb) == nil {
			t.Errorf("feedback for decision %+v accepted, want an error from every Observe", d)
		}
	}
	noSignal := Feedback{Latency: 0}
	if err := errors.Join(sched.Observe(noSignal), srv.Observe(3, noSignal), b.Observe(3, noSignal)); err != nil {
		t.Errorf("signal-free feedback = %v, want a silent drop", err)
	}
	b.Run()
	if st := srv.Stats(); st.Observes != 0 || srv.Streams() != 0 {
		t.Errorf("%d observes applied, %d sessions created by refused and dropped feedback, want 0", st.Observes, srv.Streams())
	}
}

// TestServerConcurrentStreams hammers a multi-shard server from many
// goroutines; run under -race this is the data-race regression test.
func TestServerConcurrentStreams(t *testing.T) {
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			spec := testSpec()
			for i := 0; i < 30; i++ {
				d, est := srv.Decide(stream, spec)
				if est.LatMean <= 0 {
					t.Errorf("stream %d: non-positive latency estimate", stream)
					return
				}
				srv.Observe(stream, Feedback{
					Decision: d, Latency: d.CapW * 0.001, CompletedStage: -1,
				})
			}
		}(s)
	}
	wg.Wait()

	stats := srv.Stats()
	if stats.Decisions != 8*30 {
		t.Errorf("stats decisions = %d, want %d", stats.Decisions, 8*30)
	}
}

// TestServerDecideBatch checks batched dispatch end-to-end through the
// public API.
func TestServerDecideBatch(t *testing.T) {
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reqs := make([]BatchRequest, 12)
	for i := range reqs {
		reqs[i] = BatchRequest{Stream: i % 3, Spec: testSpec()}
	}
	res := srv.DecideBatch(reqs)
	if len(res) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(res), len(reqs))
	}
	for i, r := range res {
		if r.Stream != reqs[i].Stream {
			t.Errorf("result %d: stream %d, want %d", i, r.Stream, reqs[i].Stream)
		}
		if r.Decision.CapW != srv.PowerCaps()[r.Decision.Cap] {
			t.Errorf("result %d: CapW %.1f not the cap-ladder value", i, r.Decision.CapW)
		}
	}
	if srv.DecideBatch(nil) != nil {
		t.Error("empty batch should return nil")
	}
	if srv.Shards() != 2 {
		t.Errorf("Shards = %d, want 2", srv.Shards())
	}
	if len(srv.Models()) == 0 {
		t.Error("Models() empty")
	}
}

// TestServerStreamLifecycle pins the public session lifecycle: sessions
// appear in Streams() on first use, EvictStream releases them, and a
// returning stream restarts from the prior — even when several streams
// share one shard.
func TestServerStreamLifecycle(t *testing.T) {
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	spec := testSpec()
	for stream := 0; stream < 5; stream++ {
		d, _ := srv.Decide(stream, spec)
		lat := 2.0 * srv.prof.At(d.Model, d.Cap)
		srv.Observe(stream, Feedback{Decision: d, Latency: lat, CompletedStage: -1, IdlePowerW: 5})
	}
	if got := srv.Streams(); got != 5 {
		t.Fatalf("Streams() = %d after 5 streams on 2 shards, want 5", got)
	}
	if st := srv.Stats(); st.Streams != 5 || st.SessionBytes <= 0 {
		t.Errorf("stats gauges (streams=%d, session_bytes=%d) implausible", st.Streams, st.SessionBytes)
	}

	if mu, _ := srv.XiEstimate(3); mu <= 1.0 {
		t.Errorf("stream 3 xi mean %.3f after 2x-slowdown feedback, want > 1", mu)
	}
	srv.EvictStream(3)
	if got := srv.Streams(); got != 4 {
		t.Fatalf("Streams() = %d after eviction, want 4", got)
	}
	if mu, _ := srv.XiEstimate(3); mu != 1.0 {
		t.Errorf("post-eviction xi mean %.3f, want the 1.0 prior", mu)
	}
}

// TestServerDefaults exercises the zero-options path and option validation.
func TestServerDefaults(t *testing.T) {
	srv, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Shards() < 1 {
		t.Errorf("default Shards = %d, want >= 1", srv.Shards())
	}
	srv.Close()

	if _, err := NewServer(CPU1(), ImageCandidates(), ServerOptions{Options: Options{Prth: 1.5}}); err == nil {
		t.Error("Prth 1.5 should be rejected")
	}
}
