package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"testing"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// startNode stands up one cluster member: a real alert.Server behind a
// netserve front end on a loopback listener. Returns its base URL.
func startNode(t testing.TB, nodeID string, shards int) string {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(netserve.New(srv, netserve.Config{NodeID: nodeID}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestClusterMigrationMatchesSolo is the acceptance differential: several
// streams replay a compiled scenario trace against a 3-node cluster, each
// stream migrating between nodes twice mid-trace, and every decision and
// estimate must be bit-identical to a single in-process controller serving
// the same trace. Run under -race this also exercises concurrent routed
// traffic + migration against shared cluster state.
func TestClusterMigrationMatchesSolo(t *testing.T) {
	addrs := []string{
		startNode(t, "a", 2),
		startNode(t, "b", 3),
		startNode(t, "c", 1),
	}
	cl, err := New(addrs, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	solo, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()

	plat, models := alert.CPU1(), alert.ImageCandidates()
	prof, err := dnn.Profile(plat, models)
	if err != nil {
		t.Fatal(err)
	}
	slowest := 0.0
	for _, m := range models {
		if lat := m.RefLatency / plat.Speed(plat.PMax); lat > slowest {
			slowest = lat
		}
	}
	base := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 1.25 * slowest, AccuracyGoal: 0.92}

	sspec, err := scenario.ByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	const streams, inputs = 4, 60
	tr, err := scenario.Compile(sspec, plat, inputs, base.Deadline, 1)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seed := int64(1 + s*7919)
			env := sim.NewEnv(prof, tr.Source(), seed+2)
			in := workload.NewStream(dnn.ImageClassification, inputs, seed+1)
			tracker := workload.NewDeadlineTracker(dnn.ImageClassification, base.Deadline, 0)
			cur := base
			for i := 0; ; i++ {
				input, ok := in.Next()
				if !ok {
					return
				}
				// Migrate mid-trace, twice, to the next member clockwise
				// from wherever the stream currently lives.
				if i == inputs/3 || i == 2*inputs/3 {
					from := cl.Route(s)
					to := nextMember(addrs, from)
					if err := cl.Migrate(ctx, s, from, to); err != nil {
						t.Errorf("stream %d step %d: migrate %s -> %s: %v", s, i, from, to, err)
						return
					}
					if got := cl.Route(s); got != to {
						t.Errorf("stream %d: routes to %s after migration to %s", s, got, to)
						return
					}
				}
				if next := tr.SpecFor(input.ID, base); next != cur {
					cur = next
					tracker.SetPerInput(cur.Deadline)
				}
				goal := tracker.GoalFor(input)
				dspec := cur
				dspec.Deadline = goal

				want, wantEst := solo.Decide(s, dspec)
				got, gotEst, err := cl.Decide(ctx, s, dspec)
				if err != nil {
					t.Errorf("stream %d step %d: %v", s, i, err)
					return
				}
				if got != want || gotEst != wantEst {
					t.Errorf("stream %d step %d on %s: cluster (%+v, %+v) != solo (%+v, %+v)",
						s, i, cl.Route(s), got, gotEst, want, wantEst)
					return
				}
				out := env.Step(sim.Decision{
					Model: want.Model, Cap: want.Cap,
					PlannedStop: want.PlannedStop, Overhead: want.Overhead,
				}, input, goal, cur.Deadline)
				tracker.Observe(input, out.Latency)
				fb := alert.Feedback{
					Decision:       want,
					Latency:        out.Latency,
					CompletedStage: out.Stage,
					IdlePowerW:     out.IdlePower,
				}
				solo.Observe(s, fb)
				if err := cl.Observe(ctx, s, fb); err != nil {
					t.Errorf("stream %d step %d: observe: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	// Every stream was migrated off its hash-home at least once and the
	// sessions ended up where the pins say: the cluster-wide session count
	// equals the stream count (no forked or orphaned sessions anywhere).
	total := 0
	for _, addr := range addrs {
		node, _ := cl.Node(addr)
		stats, err := node.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total += stats.Streams
	}
	if total != streams {
		t.Errorf("cluster-wide sessions = %d, want %d", total, streams)
	}
	for s := 0; s < streams; s++ {
		node, _ := cl.Node(cl.Route(s))
		snap, err := node.ExportStream(ctx, s)
		if err != nil {
			t.Errorf("stream %d not on its routed node: %v", s, err)
			continue
		}
		if snap.Decisions != inputs {
			t.Errorf("stream %d: %d decisions recorded, want %d", s, snap.Decisions, inputs)
		}
	}
}

// nextMember returns the member after addr, wrapping.
func nextMember(addrs []string, addr string) string {
	for i, a := range addrs {
		if a == addr {
			return addrs[(i+1)%len(addrs)]
		}
	}
	return addrs[0]
}

// TestMigrateEdgeCases: no-session migrations pin and succeed (idempotent
// plans), same-node migrations are no-ops, and unknown members fail fast.
func TestMigrateEdgeCases(t *testing.T) {
	a := startNode(t, "a", 1)
	b := startNode(t, "b", 1)
	cl, err := New([]string{a, b}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Stream 42 has no session anywhere: migrating it ships nothing but
	// still pins the route.
	if err := cl.Migrate(ctx, 42, a, b); err != nil {
		t.Fatalf("no-session migrate: %v", err)
	}
	if got := cl.Route(42); got != b {
		t.Errorf("route after no-session migrate = %s, want %s", got, b)
	}

	if err := cl.Migrate(ctx, 42, b, b); err != nil {
		t.Errorf("same-node migrate: %v", err)
	}
	if err := cl.Migrate(ctx, 42, "http://nowhere:1", b); err == nil {
		t.Error("unknown source accepted")
	}
	if err := cl.Migrate(ctx, 42, b, "http://nowhere:1"); err == nil {
		t.Error("unknown target accepted")
	}

	// A real migration back to the stream's hash-home drops the pin.
	if _, _, err := cl.Decide(ctx, 42, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}); err != nil {
		t.Fatal(err)
	}
	home := cl.ring.Owner(42)
	other := nextMember([]string{a, b}, home)
	if err := cl.Migrate(ctx, 42, cl.Route(42), home); err != nil {
		t.Fatal(err)
	}
	if len(cl.pins) != 0 {
		t.Errorf("pin onto hash-home retained: %v", cl.pins)
	}
	if err := cl.Migrate(ctx, 42, home, other); err != nil {
		t.Fatal(err)
	}
	if cl.pins[42] != other {
		t.Errorf("pins = %v, want stream 42 on %s", cl.pins, other)
	}
}

// TestSetMembersDropsOrphanedPins: removing the pinned-to member drops the
// pin so the stream falls back to its hash-home instead of routing into a
// closed client.
func TestSetMembersDropsOrphanedPins(t *testing.T) {
	a := startNode(t, "a", 1)
	b := startNode(t, "b", 1)
	cl, err := New([]string{a, b}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Migrate(context.Background(), 7, a, b); err != nil {
		t.Fatal(err)
	}
	wantPinned := cl.Route(7) == b && cl.ring.Owner(7) != b
	if err := cl.SetMembers([]string{a}); err != nil {
		t.Fatal(err)
	}
	if got := cl.Route(7); got != a {
		t.Errorf("route after member removal = %s, want %s", got, a)
	}
	if wantPinned && len(cl.pins) != 0 {
		t.Errorf("orphaned pin retained: %v", cl.pins)
	}
}

// TestConcurrentMigrateSameStream pins down the in-flight guard: two
// Migrates for the same stream overlap deterministically (the first one's
// import is stalled behind a proxy), exactly one wins, the loser gets
// ErrMigrationInFlight immediately, and the stream never forks — its one
// session ends up on exactly one node with every decision intact. Run under
// -race this also exercises the guard's locking against routed traffic.
func TestConcurrentMigrateSameStream(t *testing.T) {
	a := startNode(t, "a", 1)
	b := startNode(t, "b", 1)
	c := startNode(t, "c", 1)

	// slowB fronts b, stalling the first import (PUT /v1/streams/{id})
	// until released so the overlap window is a certainty, not a sleep.
	bURL, err := url.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(bURL)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slowB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			once.Do(func() { close(entered) })
			<-release
		}
		proxy.ServeHTTP(w, r)
	}))
	defer slowB.Close()

	cl, err := New([]string{a, slowB.URL, c}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}

	// Pick a stream whose hash-home is NOT the stalled node, so the winner's
	// migration imports through the stall while the loser races it.
	stream := -1
	for s := 0; s < 64; s++ {
		if cl.Route(s) != slowB.URL {
			stream = s
			break
		}
	}
	if stream < 0 {
		t.Fatal("no stream routes away from the stalled member")
	}
	home := cl.Route(stream)
	other := a
	if home == a {
		other = c
	}
	if _, _, err := cl.Decide(ctx, stream, spec); err != nil {
		t.Fatal(err)
	}

	winner := make(chan error, 1)
	go func() { winner <- cl.Migrate(ctx, stream, home, slowB.URL) }()
	<-entered // the winner's import is now in flight

	// The concurrent second Migrate must lose fast, without touching the
	// session mid-ship.
	if err := cl.Migrate(ctx, stream, home, other); !errors.Is(err, ErrMigrationInFlight) {
		t.Fatalf("concurrent migrate: err = %v, want ErrMigrationInFlight", err)
	}
	close(release)
	if err := <-winner; err != nil {
		t.Fatalf("winning migrate: %v", err)
	}

	// No fork: the session lives exactly once, behind the stalled node, with
	// its decision intact, and routing follows the winner.
	if got := cl.Route(stream); got != slowB.URL {
		t.Errorf("route = %s, want the winning target %s", got, slowB.URL)
	}
	holders := 0
	for _, addr := range []string{a, slowB.URL, c} {
		node, _ := cl.Node(addr)
		ids, err := node.Streams(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id == stream {
				holders++
			}
		}
	}
	if holders != 1 {
		t.Fatalf("stream %d live on %d nodes, want exactly 1", stream, holders)
	}
	node, _ := cl.Node(slowB.URL)
	snap, err := node.ExportStream(ctx, stream)
	if err != nil {
		t.Fatalf("session not on the winning target: %v", err)
	}
	if snap.Decisions != 1 {
		t.Errorf("session holds %d decisions after the race, want 1", snap.Decisions)
	}

	// Hammer phase: many goroutines race the same migration plan. The guard
	// serializes them into one winner plus idempotent no-session pins —
	// every error is nil or ErrMigrationInFlight, never a forked session.
	if err := node.ImportStream(ctx, stream, snap); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cl.Migrate(ctx, stream, slowB.URL, other)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrMigrationInFlight) {
			t.Errorf("hammer migrate %d: %v", i, err)
		}
	}
	holders = 0
	for _, addr := range []string{a, slowB.URL, c} {
		n, _ := cl.Node(addr)
		ids, err := n.Streams(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id == stream {
				holders++
			}
		}
	}
	if holders != 1 {
		t.Fatalf("after hammer: stream %d live on %d nodes, want exactly 1", stream, holders)
	}
	if got := cl.Route(stream); got != other {
		t.Errorf("after hammer: route = %s, want %s", got, other)
	}
}
