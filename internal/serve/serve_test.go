package serve

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
)

func testProfile(t testing.TB) *dnn.ProfileTable {
	t.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// step is one scripted Decide followed by a synthetic Observe; the xi draw
// depends only on (stream, index), so serial and sharded replays see the
// same feedback whenever decisions match.
type step struct {
	spec core.Spec
	xi   float64
}

func script(stream, n int) []step {
	rng := mathx.NewRand(int64(1000 + stream))
	out := make([]step, n)
	for i := range out {
		out[i] = step{
			spec: core.Spec{
				Objective:    core.MinimizeEnergy,
				Deadline:     0.1 + 0.1*rng.Float64(),
				AccuracyGoal: 0.85 + 0.1*rng.Float64(),
			},
			xi: 0.9 + 0.4*rng.Float64(),
		}
	}
	return out
}

func outcomeFor(prof *dnn.ProfileTable, d sim.Decision, xi float64) sim.Outcome {
	return sim.Outcome{ObservedXi: xi, IdlePower: 5, CapApplied: prof.Caps[d.Cap]}
}

// runBurst applies ops as one fresh burst and returns them, results in
// place.
func runBurst(p *Pool, ops []Op) []Op {
	b := Burst{Ops: ops}
	p.Run(&b)
	return b.Ops
}

// serialRun replays a stream's script against a lone session — the
// paper's one-stream-per-controller deployment the shards must match.
func serialRun(prof *dnn.ProfileTable, steps []step) []sim.Decision {
	ctl := core.NewEngine(prof, core.DefaultOptions()).NewSession()
	out := make([]sim.Decision, len(steps))
	for i, st := range steps {
		d, _ := ctl.Decide(st.spec)
		ctl.Observe(outcomeFor(prof, d, st.xi))
		out[i] = d
	}
	return out
}

// TestShardDeterminism is the serve-level differential criterion for the
// Engine/Session split: it drives more streams than shards through the pool
// concurrently — so every shard multiplexes several streams' sessions, and
// the cross-stream interleaving on each shard is scheduling-dependent — and
// checks each stream's decision sequence is identical to serial
// single-controller execution of that stream alone.
func TestShardDeterminism(t *testing.T) {
	prof := testProfile(t)
	const streams, steps = 7, 60

	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()

	got := make([][]sim.Decision, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := make([]sim.Decision, 0, steps)
			for _, st := range script(s, steps) {
				d, _ := pool.Decide(s, st.spec)
				pool.Observe(s, outcomeFor(prof, d, st.xi))
				seq = append(seq, d)
			}
			got[s] = seq
		}(s)
	}
	wg.Wait()

	for s := 0; s < streams; s++ {
		want := serialRun(prof, script(s, steps))
		if !reflect.DeepEqual(got[s], want) {
			t.Errorf("stream %d: sharded decisions diverge from serial execution", s)
		}
	}
}

// TestObserveOrdering checks that an async Observe is applied before a
// later Decide on the same stream: after heavy-slowdown feedback the
// stream's xi estimate must have moved.
func TestObserveOrdering(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, _ := pool.Decide(0, spec)
	for i := 0; i < 20; i++ {
		pool.Observe(0, outcomeFor(prof, d, 2.0))
	}
	mu, _ := pool.XiEstimate(0)
	if mu < 1.2 {
		t.Errorf("xi mean %.3f after sustained 2.0 slowdown feedback; observes not applied in order", mu)
	}
	// Stream 2 shares stream 0's shard (2 mod 2 == 0) but has its own
	// session, which saw nothing and must still be at its prior.
	mu2, _ := pool.XiEstimate(2)
	if mu2 != 1.0 {
		t.Errorf("untouched same-shard stream xi mean = %.3f, want 1.0 (state leaked across sessions)", mu2)
	}
	// A stream on the sibling shard must be at its prior too.
	mu1, _ := pool.XiEstimate(1)
	if mu1 != 1.0 {
		t.Errorf("untouched shard xi mean = %.3f, want 1.0 (state leaked across shards)", mu1)
	}
}

// TestXiEstimateDuringTraffic races XiEstimate against live Decide/Observe
// traffic on the same shard; under -race this pins the requirement that
// controller state is only ever read on its worker goroutine.
func TestXiEstimateDuringTraffic(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 1)
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d, _ := pool.Decide(0, spec)
			pool.Observe(0, outcomeFor(prof, d, 1.0+float64(i%5)*0.1))
		}
	}()
	for i := 0; i < 50; i++ {
		if mu, sigma := pool.XiEstimate(0); mu <= 0 || sigma < 0 {
			t.Fatalf("implausible xi estimate (%g, %g)", mu, sigma)
		}
	}
	<-done
}

// TestDecideBatch checks request-order results and per-stream FIFO within a
// batch.
func TestDecideBatch(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 3)
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.9}
	reqs := make([]Op, 30)
	for i := range reqs {
		reqs[i] = Op{Stream: i % 5, Spec: spec}
	}
	res := runBurst(pool, reqs)
	if len(res) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(res), len(reqs))
	}
	for i, r := range res {
		if r.Decision.Model < 0 || r.Decision.Model >= prof.NumModels() {
			t.Fatalf("result %d: model %d out of range", i, r.Decision.Model)
		}
	}

	snap := pool.Counters().Snapshot()
	if snap.Decisions != int64(len(reqs)) {
		t.Errorf("counter decisions = %d, want %d", snap.Decisions, len(reqs))
	}
	if snap.Batches != 1 {
		t.Errorf("counter batches = %d, want 1", snap.Batches)
	}
	if snap.AvgDecideLatency <= 0 || snap.MaxDecideLatency < snap.AvgDecideLatency {
		t.Errorf("implausible latency counters: %+v", snap)
	}
}

// TestDecideBatchRequestOrder checks that the per-shard grouped dispatch
// still returns results in request order with the right per-request
// decision: distinct specs per request make a misplaced result visible.
func TestDecideBatchRequestOrder(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 4)
	defer pool.Close()

	// Mixed streams in a deliberately non-contiguous shard pattern, each
	// with its own deadline so expected decisions differ across requests.
	reqs := make([]Op, 41)
	for i := range reqs {
		reqs[i] = Op{
			Stream: (i * 7) % 13,
			Spec: core.Spec{
				Objective:    core.MinimizeEnergy,
				Deadline:     0.08 + 0.02*float64(i%6),
				AccuracyGoal: 0.9,
			},
		}
	}
	got := runBurst(pool, reqs)

	// The oracle: one lone controller per *stream* replaying that stream's
	// requests in batch order — streams share nothing, even when they share
	// a shard, so per-stream replay is the exact semantics.
	ctls := map[int]*core.Session{}
	for i, r := range reqs {
		ctl, ok := ctls[r.Stream]
		if !ok {
			ctl = core.NewEngine(prof, core.DefaultOptions()).NewSession()
			ctls[r.Stream] = ctl
		}
		d, est := ctl.Decide(r.Spec)
		if got[i].Decision != d || got[i].Estimate != est {
			t.Fatalf("request %d (stream %d): result %+v, want %+v", i, r.Stream, got[i].Decision, d)
		}
	}
}

// TestDecideBatchFIFOWithObserves interleaves batches with per-stream
// Observes and checks each stream's decision sequence against serial
// execution: the grouped dispatch must preserve per-stream FIFO with
// feedback applied between batches.
func TestDecideBatchFIFOWithObserves(t *testing.T) {
	prof := testProfile(t)
	const streams, rounds = 3, 25
	// Fewer shards than streams: per-stream FIFO must hold even when a
	// shard's worker multiplexes several streams' sessions.
	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()

	scripts := make([][]step, streams)
	for s := range scripts {
		scripts[s] = script(s, rounds)
	}
	got := make([][]sim.Decision, streams)
	for r := 0; r < rounds; r++ {
		reqs := make([]Op, streams)
		for s := 0; s < streams; s++ {
			reqs[s] = Op{Stream: s, Spec: scripts[s][r].spec}
		}
		res := runBurst(pool, reqs)
		for s := 0; s < streams; s++ {
			got[s] = append(got[s], res[s].Decision)
			pool.Observe(s, outcomeFor(prof, res[s].Decision, scripts[s][r].xi))
		}
	}
	for s := 0; s < streams; s++ {
		want := serialRun(prof, scripts[s])
		if !reflect.DeepEqual(got[s], want) {
			t.Errorf("stream %d: batched decisions diverge from serial execution", s)
		}
	}
}

// TestBurstMatchesSerial runs whole scripts — every stream's decide AND the
// observe that answers it — as bursts, several rounds deep, on fewer shards
// than streams: the observe of round r and the decide of round r+1 sit in
// the same burst, so the group task must apply a stream's ops in slice
// order, not decides first. One Burst is reused throughout, which also
// covers the scratch carried from run to run.
func TestBurstMatchesSerial(t *testing.T) {
	prof := testProfile(t)
	const streams, rounds, depth = 5, 24, 3
	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()

	scripts := make([][]step, streams)
	want := make([][]sim.Decision, streams)
	for s := range scripts {
		scripts[s] = script(s, rounds)
		want[s] = serialRun(prof, scripts[s])
	}
	var b Burst
	for r0 := 0; r0 < rounds; r0 += depth {
		b.Ops = b.Ops[:0]
		for r := r0; r < r0+depth; r++ {
			for s := 0; s < streams; s++ {
				// The feedback is the serial run's: it is what this decide
				// must produce for the sequences to stay equal.
				b.Ops = append(b.Ops,
					Op{Stream: s, Spec: scripts[s][r].spec},
					Op{Stream: s, Observe: true, Out: outcomeFor(prof, want[s][r], scripts[s][r].xi)})
			}
		}
		pool.Run(&b)
		for i := 0; i < len(b.Ops); i += 2 {
			s, r := b.Ops[i].Stream, r0+i/2/streams
			if b.Ops[i].Decision != want[s][r] {
				t.Fatalf("stream %d round %d: burst decision %+v, serial %+v", s, r, b.Ops[i].Decision, want[s][r])
			}
		}
	}
	snap := pool.Counters().Snapshot()
	if snap.Decisions != streams*rounds || snap.Observes != streams*rounds || snap.Batches != rounds/depth {
		t.Errorf("counters = %d decisions, %d observes, %d batches; want %d/%d/%d",
			snap.Decisions, snap.Observes, snap.Batches, streams*rounds, streams*rounds, rounds/depth)
	}
	pool.Run(&Burst{}) // an empty burst is a no-op, not a hang
}

// TestBurstSteadyStateAllocs pins what lets a connection run a burst per
// wake-up for free: a reused Burst allocates nothing once its scratch has
// grown to the burst's size, singleton or not.
func TestBurstSteadyStateAllocs(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: prof.Caps[3]}
	var b Burst
	for _, n := range []int{16, 1} {
		run := func() {
			b.Ops = b.Ops[:0]
			for i := 0; i < n; i++ {
				b.Ops = append(b.Ops, Op{Stream: i, Spec: spec}, Op{Stream: i, Observe: true, Out: out})
			}
			pool.Run(&b)
		}
		run() // sessions, scratch
		if a := testing.AllocsPerRun(200, run); a >= 1 {
			t.Errorf("reused burst of %d loops allocates %.2f/run, want ~0", n, a)
		}
	}
}

// TestDecideBatchStress races batched dispatch, single decides, and
// observes over more streams than shards; under -race this pins the grouped
// path's memory safety (disjoint result writes, wg-published reads).
func TestDecideBatchStress(t *testing.T) {
	prof := testProfile(t)
	pool := newPool(prof, core.DefaultOptions(), 3, 8)
	defer pool.Close()

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.9}
			for i := 0; i < 30; i++ {
				reqs := make([]Op, 11)
				for j := range reqs {
					reqs[j] = Op{Stream: g*31 + j, Spec: spec}
				}
				res := runBurst(pool, reqs)
				for j, r := range res {
					if r.Decision.Model < 0 || r.Decision.Model >= prof.NumModels() {
						t.Errorf("bad model %d", r.Decision.Model)
						return
					}
					pool.Observe(reqs[j].Stream, outcomeFor(prof, r.Decision, 1.1))
				}
				d, _ := pool.Decide(g, spec)
				pool.Observe(g, outcomeFor(prof, d, 0.95))
			}
		}(g)
	}
	wg.Wait()
	drain(pool)
	snap := pool.Counters().Snapshot()
	wantDecides := int64(goroutines * 30 * (11 + 1))
	if snap.Decisions != wantDecides {
		t.Errorf("decisions counter = %d, want %d", snap.Decisions, wantDecides)
	}
	if snap.Batches != int64(goroutines*30) {
		t.Errorf("batches counter = %d, want %d", snap.Batches, goroutines*30)
	}
}

// TestPoolDecideSteadyStateAllocs asserts the serve-layer allocation
// contract: with its burst of one recycled and the controller's
// allocation-free scan, a steady-state Decide round trip allocates nothing.
// The worker goroutine's allocations count too (AllocsPerRun reads the
// global counter), so an occasional sync.Pool refill after GC is tolerated
// but systematic per-call allocation is not.
func TestPoolDecideSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop recycled bursts")
	}
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 1)
	defer pool.Close()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	pool.Decide(0, spec) // warm pool, scratch
	if n := testing.AllocsPerRun(500, func() { pool.Decide(0, spec) }); n >= 1 {
		t.Errorf("steady-state pool Decide allocates %.2f/op, want ~0", n)
	}
}

// TestScanCountersMove is the drill for the scan observability: every
// decision — single or batched — books the candidates its scan scored (at
// least one, and a few of the whole space: the candidates below the
// accuracy goal cost no CDF even before a best is held), and a spec nothing
// can satisfy shows up as an infeasible fallback.
func TestScanCountersMove(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()
	space := int64(len(pool.eng.Candidates()))

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	const singles, batch = 40, 16
	for i := 0; i < singles; i++ {
		d, _ := pool.Decide(i%4, spec)
		pool.Observe(i%4, outcomeFor(prof, d, 1.05))
	}
	reqs := make([]Op, batch)
	for i := range reqs {
		reqs[i] = Op{Stream: i, Spec: spec}
	}
	runBurst(pool, reqs)

	snap := pool.Counters().Snapshot()
	decisions := int64(singles + batch)
	if snap.Decisions != decisions {
		t.Fatalf("decisions = %d, want %d", snap.Decisions, decisions)
	}
	if snap.CandidatesScored < decisions || snap.CandidatesScored > decisions*space/10 {
		t.Errorf("candidates_scored = %d over %d decisions of a %d-candidate space: want at least 1 and under a tenth of the space per decide",
			snap.CandidatesScored, decisions, space)
	}
	if snap.InfeasibleFallbacks != 0 {
		t.Errorf("infeasible_fallbacks = %d before any infeasible spec", snap.InfeasibleFallbacks)
	}

	impossible := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9999}
	pool.Decide(0, impossible)
	runBurst(pool, []Op{{Stream: 1, Spec: impossible}, {Stream: 2, Spec: spec}})
	after := pool.Counters().Snapshot()
	if after.InfeasibleFallbacks != 2 {
		t.Errorf("infeasible_fallbacks = %d after two infeasible decisions, want 2", after.InfeasibleFallbacks)
	}
	// With nothing feasible the fallback pass scores only what its quality
	// bound cannot rule out, and no candidate twice: something, but less
	// than the whole space per decision.
	if got := after.CandidatesScored - snap.CandidatesScored; got < 2 || got >= 2*space {
		t.Errorf("two infeasible decisions and one feasible scored %d candidates, want 2..%d", got, 2*space-1)
	}
}

// TestEvictStream pins the session lifecycle: create on first use, evict on
// demand (gauges move both ways), and a returning stream restarts from the
// initial filter state like a brand-new stream.
// drain blocks until every shard of p has served everything submitted
// before the call: the fence that makes reading shard state well-defined.
func drain(p *Pool) { p.everyShard(func(int, *shard) {}) }

func TestEvictStream(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 2)
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, _ := pool.Decide(0, spec)
	for i := 0; i < 20; i++ {
		pool.Observe(0, outcomeFor(prof, d, 2.0))
	}
	if mu, _ := pool.XiEstimate(0); mu < 1.2 {
		t.Fatalf("xi mean %.3f, feedback not applied", mu)
	}
	if n := pool.NumStreams(); n != 1 {
		t.Fatalf("NumStreams = %d before eviction, want 1", n)
	}
	snap := pool.Counters().Snapshot()
	if want := snap.Streams * int64(StreamBytes()); snap.SessionBytes != want {
		t.Errorf("SessionBytes gauge = %d, want %d (streams × session size)", snap.SessionBytes, want)
	}

	pool.EvictStream(0)
	if n := pool.NumStreams(); n != 0 {
		t.Fatalf("NumStreams = %d after eviction, want 0", n)
	}
	if snap := pool.Counters().Snapshot(); snap.SessionBytes != 0 {
		t.Errorf("SessionBytes gauge = %d after eviction, want 0", snap.SessionBytes)
	}
	// Evicting an unknown stream is a no-op, not a panic or a negative
	// gauge.
	pool.EvictStream(42)
	if snap := pool.Counters().Snapshot(); snap.Streams != 0 {
		t.Errorf("Streams gauge = %d after no-op eviction, want 0", snap.Streams)
	}

	// The evicted stream must read back at the prior — and the read itself
	// must not re-materialize a session (XiEstimate is a pure read, so
	// monitoring polls cannot re-inflate the table EvictStream just shrank).
	if mu, _ := pool.XiEstimate(0); mu != 1.0 {
		t.Errorf("post-eviction xi mean = %.3f, want the 1.0 prior (stale session survived)", mu)
	}
	if n := pool.NumStreams(); n != 0 {
		t.Errorf("NumStreams = %d after a post-eviction XiEstimate, want 0 (read created a session)", n)
	}

	// Real traffic after eviction starts a fresh session.
	pool.Decide(0, spec)
	if n := pool.NumStreams(); n != 1 {
		t.Errorf("NumStreams = %d after post-eviction Decide, want 1", n)
	}
	if mu, _ := pool.XiEstimate(0); mu != 1.0 {
		t.Errorf("returning stream xi mean = %.3f, want a fresh 1.0 prior", mu)
	}
}

// TestStreamChurn100k churns 100k streams through the table — create on
// first use, evict after a short life — under concurrent steady-state
// traffic on long-lived streams. Under -race this pins the stream table's
// memory safety; the assertions pin the gauges' books and the steady
// streams' isolation from the churn (their decisions must equal solo serial
// execution, as always).
func TestStreamChurn100k(t *testing.T) {
	prof := testProfile(t)
	pool := newPool(prof, core.DefaultOptions(), 4, 128)
	defer pool.Close()

	const (
		churners    = 8
		perChurner  = 12500 // 100k total
		steady      = 3
		steadySteps = 40
	)
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}

	var wg sync.WaitGroup
	// Steady long-lived streams: full decide→observe loops whose decision
	// sequences must come out identical to solo execution despite 100k
	// sessions being created and destroyed around them. Negative ids keep
	// them disjoint from the churn id space.
	gotSteady := make([][]sim.Decision, steady)
	for s := 0; s < steady; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			stream := -(s + 1)
			seq := make([]sim.Decision, 0, steadySteps)
			for _, st := range script(s, steadySteps) {
				d, _ := pool.Decide(stream, st.spec)
				pool.Observe(stream, outcomeFor(prof, d, st.xi))
				seq = append(seq, d)
			}
			gotSteady[s] = seq
		}(s)
	}
	// Churners: each stream lives for one or two requests, then is evicted.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perChurner; i++ {
				stream := c*perChurner + i
				pool.Observe(stream, outcomeFor(prof, sim.Decision{}, 1.1))
				if i%64 == 0 { // a full decide now and then; every op on a fresh session
					pool.Decide(stream, spec)
				}
				pool.EvictStream(stream)
			}
		}(c)
	}
	wg.Wait()
	drain(pool)

	for s := 0; s < steady; s++ {
		want := serialRun(prof, script(s, steadySteps))
		if !reflect.DeepEqual(gotSteady[s], want) {
			t.Errorf("steady stream %d: decisions diverged from solo execution under churn", s)
		}
	}
	snap := pool.Counters().Snapshot()
	if snap.Streams != steady {
		t.Errorf("Streams gauge = %d after churn, want %d (every churned session evicted)", snap.Streams, steady)
	}
	if want := snap.Streams * int64(StreamBytes()); snap.SessionBytes != want {
		t.Errorf("SessionBytes gauge = %d, want %d", snap.SessionBytes, want)
	}
	if snap.Observes != churners*perChurner+steady*steadySteps {
		t.Errorf("Observes = %d, want %d", snap.Observes, churners*perChurner+steady*steadySteps)
	}
}

// TestShardPinning checks the stream→shard map, including negative streams.
func TestShardPinning(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 4)
	defer pool.Close()

	if got := pool.shardFor(6); got != pool.shards[2] {
		t.Error("stream 6 should pin to shard 2 of 4")
	}
	if got := pool.shardFor(-1); got != pool.shards[3] {
		t.Error("stream -1 should pin to shard 3 of 4, not panic")
	}
	if pool.NumShards() != 4 {
		t.Errorf("NumShards = %d, want 4", pool.NumShards())
	}
}

// TestConfigDefaults checks a pool built with no shard count still serves,
// on one shard.
func TestConfigDefaults(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), 0)
	defer pool.Close()
	if pool.NumShards() != 1 {
		t.Fatalf("shards = %d, want 1", pool.NumShards())
	}
	d, est := pool.Decide(0, core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
	if est.LatMean <= 0 {
		t.Errorf("estimate LatMean = %g, want > 0", est.LatMean)
	}
	_ = d
	drain(pool)
	pool.Close() // double Close must be safe
}

// TestTaskFootprint pins the size of the value every burst and lone Observe
// copies through a shard channel: a group pointer, an observe's stream,
// outcome and last-use offset, and one closure pointer. A decide's spec and
// result live in its burst's Op, and a control operation that needs more
// state captures it in its closure, rather than widening the task.
func TestTaskFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(task{}); sz > 136 {
		t.Errorf("task struct is %d bytes, want <= 136", sz)
	}
}

// TestStreamTableFootprint measures what a stream costs the table it lives
// in, map slot included: one allocation (the entry, its state embedded)
// and the entry's 80-byte size class plus the map's share. The bounds hold
// for both the bucket maps of Go before 1.24 (≈ 30 B of map per stream at
// this count) and the swiss maps after. A second allocation per stream, or
// an entry that outgrows its size class (the 96-byte entry whose state
// carried two unread counters measured about 124 B here, the 128-byte
// entry that carried a Session's pointers 156 B), fails it.
func TestStreamTableFootprint(t *testing.T) {
	if sz := StreamBytes(); sz > 80 {
		t.Errorf("stream-table entry is %d bytes, want <= 80", sz)
	}
	pool := NewPool(testProfile(t), core.DefaultOptions(), 1)
	defer pool.Close()
	const n = 20000
	out := sim.Outcome{ObservedXi: 1.1, IdlePower: 6, CapApplied: 30}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		pool.Observe(i, out)
	}
	drain(pool)
	runtime.GC()
	runtime.ReadMemStats(&after)

	if got := pool.NumStreams(); got != n {
		t.Fatalf("streams = %d, want %d", got, n)
	}
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	if mallocs > 1.05 {
		t.Errorf("%.3f allocations per new stream, want <= 1.05", mallocs)
	}
	if heap > 120 {
		t.Errorf("%.1f heap bytes per stream, want <= 120", heap)
	}
	t.Logf("%.3f allocations, %.1f heap bytes per stream", mallocs, heap)
}

// TestStreamEntryHasNoPointers walks the stream-table entry's type and
// rejects any field the garbage collector would have to scan: a pointer,
// slice, map, string, interface, func or chan, however deeply nested. A
// pointer-free entry lives in the collector's noscan spans, so a table of
// millions of streams adds nothing to its mark work.
func TestStreamEntryHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: the entry must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("entry", reflect.TypeOf(entry{}))
}
