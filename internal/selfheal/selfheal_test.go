package selfheal

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/hashring"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/netserve"
)

// healNode is one full test node: stream table, membership agent, and
// Manager behind a real netserve front end on loopback.
type healNode struct {
	id    string
	url   string
	srv   *alert.Server
	agent *membership.Agent
	mgr   *Manager
}

// startHealNode stands one up. The handler is installed through an
// indirection because the Manager needs the listener's URL as its ring
// address before the netserve handler can be built.
func startHealNode(t *testing.T, id string) *healNode {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	var handler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var mgr *Manager
	agent, err := membership.New(membership.Config{
		ID:   id,
		Addr: ts.URL,
		OnChange: func(v membership.View) {
			if mgr != nil {
				mgr.OnViewChange(v)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err = New(Config{NodeID: id, Addr: ts.URL, Agent: agent, Server: srv, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close) // before srv.Close: cleanups run last-registered first
	handler = netserve.New(srv, netserve.Config{NodeID: id, Membership: agent, Recovery: mgr})
	return &healNode{id: id, url: ts.URL, srv: srv, agent: agent, mgr: mgr}
}

// connect merges a full alive view of all nodes into every agent, the
// state a converged heartbeat exchange would reach.
func connect(t *testing.T, nodes []*healNode) {
	t.Helper()
	entries := make([]membership.Entry, 0, len(nodes))
	for _, n := range nodes {
		entries = append(entries, membership.Entry{
			ID: n.id, Addr: n.url, Incarnation: 1, State: membership.StateAlive,
		})
	}
	v := membership.View{Version: 1, Entries: entries}
	for _, n := range nodes {
		n.agent.HandleHeartbeat(membership.Heartbeat{View: v})
	}
}

// declareDead merges a dead tombstone for victim into every survivor,
// which is what the gossip path delivers after the lease expires. The
// merge fires each agent's OnChange, i.e. the Managers' failover.
func declareDead(nodes []*healNode, victim *healNode) {
	tomb := membership.View{Version: 2, Entries: []membership.Entry{{
		ID: victim.id, Addr: victim.url, Incarnation: 1, State: membership.StateDead,
	}}}
	for _, n := range nodes {
		if n != victim {
			n.agent.HandleHeartbeat(membership.Heartbeat{View: tomb})
		}
	}
}

// driveStream runs a few decide/observe rounds for a stream on a node so
// its session has real filter state and a nonzero decision count.
func driveStream(n *healNode, stream, rounds int) {
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.5, AccuracyGoal: 0.9}
	for i := 0; i < rounds; i++ {
		d, _ := n.srv.Decide(stream, spec)
		n.srv.Observe(stream, alert.Feedback{Decision: d, Latency: 0.1, CompletedStage: 0})
	}
}

func holds(n *healNode, stream int) bool {
	for _, id := range n.srv.StreamIDs() {
		if id == stream {
			return true
		}
	}
	return false
}

// waitFor polls until cond or the deadline; failover runs on its own
// goroutine, so tests observe it asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicateThenFailover is the tentpole's core loop in miniature:
// three nodes, streams served on one of them, checkpoints replicated to
// ring successors, the serving node dies, and the successors restore every
// orphan with its decision count intact — no orchestrator in sight.
func TestReplicateThenFailover(t *testing.T) {
	nodes := []*healNode{startHealNode(t, "n1"), startHealNode(t, "n2"), startHealNode(t, "n3")}
	connect(t, nodes)
	victim := nodes[0]

	streams := []int{1, 2, 3, 4, 5, 6}
	for _, s := range streams {
		driveStream(victim, s, 3)
	}
	want := make(map[int]int64)
	for _, s := range streams {
		snap, ok := victim.srv.SnapshotStream(s)
		if !ok {
			t.Fatalf("stream %d not held by victim", s)
		}
		want[s] = snap.Decisions
	}

	if shipped := victim.mgr.ReplicateOnce(context.Background()); shipped != len(streams) {
		t.Fatalf("replicated %d streams, want %d", shipped, len(streams))
	}
	// Every replica must sit on the stream's ring successor, where the
	// post-failure hash ring will route.
	members := victim.agent.Members()
	for _, s := range streams {
		succ := hashring.Successor(members, victim.url, s)
		var holder *healNode
		for _, n := range nodes[1:] {
			if _, ok := heldReplica(n.mgr, s); ok {
				holder = n
			}
		}
		if holder == nil || holder.url != succ {
			t.Fatalf("stream %d replica not on ring successor %s", s, succ)
		}
	}

	declareDead(nodes, victim)

	ring := hashring.Build([]string{nodes[1].url, nodes[2].url})
	for _, s := range streams {
		s := s
		home := ring.Owner(s)
		var owner *healNode
		for _, n := range nodes[1:] {
			if n.url == home {
				owner = n
			}
		}
		waitFor(t, fmt.Sprintf("stream %d restored on %s", s, owner.id), func() bool {
			return holds(owner, s)
		})
		snap, ok := owner.srv.SnapshotStream(s)
		if !ok || snap.Decisions != want[s] {
			t.Fatalf("stream %d restored with %d decisions, want %d", s, snap.Decisions, want[s])
		}
		// Single ownership: nobody else holds it.
		for _, n := range nodes[1:] {
			if n != owner && holds(n, s) {
				t.Fatalf("stream %d held by both %s and %s", s, owner.id, n.id)
			}
		}
	}
}

// TestFailoverSkipsMigratedStream: a stream that was migrated off the
// dying node before the crash is not an orphan — the stale replica must
// not be restored over the live, fresher session.
func TestFailoverSkipsMigratedStream(t *testing.T) {
	nodes := []*healNode{startHealNode(t, "n1"), startHealNode(t, "n2"), startHealNode(t, "n3")}
	connect(t, nodes)
	victim := nodes[0]

	const stream = 7
	driveStream(victim, stream, 2)
	if victim.mgr.ReplicateOnce(context.Background()) != 1 {
		t.Fatal("replica not shipped")
	}

	// Migrate: export removes the session from the victim, import lands it
	// somewhere else, and the session keeps evolving past the checkpoint.
	snap, ok := victim.srv.ExportStream(stream)
	if !ok {
		t.Fatal("export failed")
	}
	dest := nodes[2]
	if err := dest.srv.ImportStream(stream, snap); err != nil {
		t.Fatal(err)
	}
	driveStream(dest, stream, 3)
	fresh, _ := dest.srv.SnapshotStream(stream)

	declareDead(nodes, victim)

	// Give any (wrong) restore a chance to happen, then check: the stream
	// lives only at its migration destination, at full freshness.
	time.Sleep(300 * time.Millisecond)
	for _, n := range nodes[1:] {
		if n != dest && holds(n, stream) {
			t.Fatalf("stale replica restored on %s despite live session on %s", n.id, dest.id)
		}
	}
	got, ok := dest.srv.SnapshotStream(stream)
	if !ok || got.Decisions != fresh.Decisions {
		t.Fatalf("live session damaged: %d decisions, want %d", got.Decisions, fresh.Decisions)
	}
}

// TestHandleClaimArbitration pins the claim total order from the holder's
// side: decisions first, import over restore at a tie, then node id.
func TestHandleClaimArbitration(t *testing.T) {
	nodes := []*healNode{startHealNode(t, "n1"), startHealNode(t, "n2")}
	connect(t, nodes)
	n := nodes[0]

	if sup, local := n.mgr.HandleClaim(1, "nX", netserve.ClaimKindRestore, 5); sup || local != -1 {
		t.Fatalf("claim on unheld stream: got (%v,%d), want (false,-1)", sup, local)
	}

	const stream = 9
	driveStream(n, stream, 4)
	snap, _ := n.srv.SnapshotStream(stream)
	local := snap.Decisions

	// Staler claim: holder keeps, claimant told superseded.
	if sup, got := n.mgr.HandleClaim(stream, "nX", netserve.ClaimKindRestore, local-1); !sup || got != local {
		t.Fatalf("staler claim: got (%v,%d), want (true,%d)", sup, got, local)
	}
	if !holds(n, stream) {
		t.Fatal("holder evicted against a staler claim")
	}
	// Tie: the local session ranks as an import (client-driven), so a
	// restore claim at equal decisions loses too.
	if sup, _ := n.mgr.HandleClaim(stream, "nX", netserve.ClaimKindRestore, local); !sup {
		t.Fatal("restore claim won a tie against a live import-ranked session")
	}
	// Fresher claim: holder evicts.
	if sup, got := n.mgr.HandleClaim(stream, "nX", netserve.ClaimKindImport, local+10); sup || got != local {
		t.Fatalf("fresher claim: got (%v,%d), want (false,%d)", sup, got, local)
	}
	if holds(n, stream) {
		t.Fatal("holder kept a session outranked by a fresher claim")
	}
}

// TestHolderWinsTotalOrder: the conflict rule must be antisymmetric —
// whichever side evaluates it, exactly one of two concurrent claimants
// survives. Enumerate both sides of every distinct pair.
func TestHolderWinsTotalOrder(t *testing.T) {
	type claim struct {
		dec  int64
		kind string
		id   string
	}
	var claims []claim
	for _, dec := range []int64{3, 7} {
		for _, kind := range []string{netserve.ClaimKindImport, netserve.ClaimKindRestore} {
			for _, id := range []string{"a", "b"} {
				claims = append(claims, claim{dec, kind, id})
			}
		}
	}
	for _, x := range claims {
		for _, y := range claims {
			if x.id == y.id {
				continue // node ids are unique cluster-wide
			}
			xw := holderWins(x.dec, x.kind, x.id, y.dec, y.kind, y.id)
			yw := holderWins(y.dec, y.kind, y.id, x.dec, x.kind, x.id)
			if xw == yw {
				t.Fatalf("claim order not antisymmetric: %+v vs %+v both %v", x, y, xw)
			}
		}
	}
}

// TestAnnounceImportEvictsStaleRestore: the migration-vs-failover race at
// the wire level. A restore lands a stale copy on one node; the migration
// import's synchronous claim broadcast must evict it, leaving one owner.
func TestAnnounceImportEvictsStaleRestore(t *testing.T) {
	nodes := []*healNode{startHealNode(t, "n1"), startHealNode(t, "n2")}
	connect(t, nodes)
	a, b := nodes[0], nodes[1]

	const stream = 11
	driveStream(a, stream, 2)
	snap, _ := a.srv.SnapshotStream(stream)

	// b holds a stale restored copy.
	if err := b.srv.ImportStream(stream, snap); err != nil {
		t.Fatal(err)
	}
	b.mgr.mu.Lock()
	b.mgr.acquired[stream] = netserve.ClaimKindRestore
	b.mgr.mu.Unlock()

	// a's session advances, then a (re-)announces it as an import — the
	// path a PUT /v1/streams/{id} migration takes.
	driveStream(a, stream, 3)
	cur, _ := a.srv.SnapshotStream(stream)
	if sup := a.mgr.AnnounceImport(stream, cur.Decisions); sup {
		t.Fatal("fresher import superseded by a stale restore")
	}
	if holds(b, stream) {
		t.Fatal("stale restored copy survived the import claim")
	}
	if !holds(a, stream) {
		t.Fatal("importing node lost its own session")
	}
}

// TestMigrationRacesFailover runs the full race, concurrently, over the
// wire: a client migrates a stream to one node at the same moment the
// membership layer declares the old owner dead and the ring successor
// restores the replica. Whatever the interleaving, the claim total order
// (import beats restore at equal decisions) must leave exactly one holder
// — the migration destination — and never a fork.
func TestMigrationRacesFailover(t *testing.T) {
	for it := 0; it < 4; it++ {
		nodes := []*healNode{startHealNode(t, "n1"), startHealNode(t, "n2"), startHealNode(t, "n3")}
		connect(t, nodes)
		victim := nodes[0]

		stream := 20 + it
		driveStream(victim, stream, 3)
		if victim.mgr.ReplicateOnce(context.Background()) != 1 {
			t.Fatal("replica not shipped")
		}

		// The migration destination is deliberately NOT the ring successor,
		// so the two paths land the stream on different nodes and the claim
		// protocol has a real conflict to arbitrate.
		succURL := hashring.Successor(victim.agent.Members(), victim.url, stream)
		var succ, dest *healNode
		for _, n := range nodes[1:] {
			if n.url == succURL {
				succ = n
			} else {
				dest = n
			}
		}
		if succ == nil || dest == nil {
			t.Fatal("could not split survivors into successor and destination")
		}

		// The migration carries the same snapshot the replica holds: a
		// decision-count tie, the hardest case for the arbitration.
		snap, _ := victim.srv.SnapshotStream(stream)
		blob, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(netserve.ImportRequest{
			SnapshotB64: base64.StdEncoding.EncodeToString(blob),
		})

		// Fire both paths concurrently, alternating which goes first so the
		// iterations cover both orderings.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if it%2 == 0 {
				time.Sleep(time.Duration(it) * time.Millisecond)
			}
			declareDead(nodes, victim)
		}()
		go func() {
			defer wg.Done()
			if it%2 == 1 {
				time.Sleep(time.Duration(it) * time.Millisecond)
			}
			req, err := http.NewRequest(http.MethodPut,
				fmt.Sprintf("%s/v1/streams/%d", dest.url, stream), bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("iteration %d: migration import status %d, want 200", it, resp.StatusCode)
			}
		}()
		wg.Wait()

		// The import must win and the restore must lose — in every
		// interleaving: a restore that landed first is evicted by the
		// import's claim broadcast; a restore that lands second is refused
		// by the destination's claim and self-evicts.
		waitFor(t, fmt.Sprintf("iteration %d: stream %d sole on destination", it, stream), func() bool {
			return holds(dest, stream) && !holds(succ, stream)
		})
		got, ok := dest.srv.SnapshotStream(stream)
		if !ok || got.Decisions != snap.Decisions {
			t.Fatalf("iteration %d: winner has %d decisions, want %d", it, got.Decisions, snap.Decisions)
		}
	}
}

// TestStoreReplicaKeepsFreshest: replication is unordered on the wire; a
// stale blob must never clobber a fresher one from the same owner.
func TestStoreReplicaKeepsFreshest(t *testing.T) {
	n := startHealNode(t, "n1")
	snap := alert.SessionSnapshot{}

	n.mgr.StoreReplica(1, "n2", 10, snap)
	n.mgr.StoreReplica(1, "n2", 4, snap) // stale duplicate: dropped
	if r, _ := heldReplica(n.mgr, 1); len(n.mgr.replicas) != 1 || r.decisions != 10 {
		t.Fatalf("stale replica overwrote fresher: %+v", r)
	}
	n.mgr.StoreReplica(1, "n2", 12, snap) // fresher: kept
	if r, _ := heldReplica(n.mgr, 1); r.decisions != 12 {
		t.Fatalf("fresher replica dropped: %+v", r)
	}
	// New owner (the stream moved): takes over regardless of count.
	n.mgr.StoreReplica(1, "n3", 2, snap)
	if r, _ := heldReplica(n.mgr, 1); r.owner != "n3" || r.decisions != 2 {
		t.Fatalf("ownership change not honored: %+v", r)
	}
}

// heldReplica returns the replica m holds for stream, if any.
func heldReplica(m *Manager, stream int) (replica, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.replicas[stream]
	return r, ok
}

// TestRestoringShedsWith503: while a stream is mid-restore the front end
// sheds its decides with 503 + Retry-After — the bounded failover window —
// and serves again the moment the hold clears.
func TestRestoringShedsWith503(t *testing.T) {
	n := startHealNode(t, "n1")
	connect(t, []*healNode{n})

	release := n.mgr.hold(3)

	body := `{"stream":3,"spec":{"objective":"min_energy","deadline_s":0.5,"accuracy_goal":0.9}}`
	post := func() *http.Response {
		resp, err := http.Post(n.url+"/v1/decide", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-restore decide: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("mid-restore 503 missing Retry-After")
	}

	release()
	resp = post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore decide: status %d, want 200", resp.StatusCode)
	}
}

// TestCloseWaitsForFailover closes a node the way its owners do — the
// Manager, then the stream table — while a failover pass is in flight: the
// second of two nodes holds 64 replicas owned by the first, which is
// declared dead, so the pass is probing and restoring streams on the table
// being closed. Close must cancel the pass and wait for it; a pass left
// running met the closed table with a send on a closed channel.
func TestCloseWaitsForFailover(t *testing.T) {
	for i := 0; i < 50; i++ {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			n1, n2 := startHealNode(t, "n1"), startHealNode(t, "n2")
			nodes := []*healNode{n1, n2}
			connect(t, nodes)
			for stream := 0; stream < 64; stream++ {
				driveStream(n1, stream, 1)
				snap, ok := n1.srv.SnapshotStream(stream)
				if !ok {
					t.Fatalf("stream %d has no session", stream)
				}
				n2.mgr.StoreReplica(stream, n1.id, snap.Decisions, snap)
			}
			declareDead(nodes, n1)
			n2.mgr.Close()
			n2.srv.Close()
		})
	}
}

// TestReplicaPutCostIndependentOfHeld: one PUT /v1/replicas/{id} costs the
// same with 10,000 replicas held as with 10 — its reply carries no count,
// so nothing lists or sorts the held table. Bytes are compared as well as
// allocations: a table-sized slice is a single allocation. Under -race the
// detector drops a random share of sync.Pool Puts, so either side may count
// an allocation or two the other did not; the bytes bound still holds there.
func TestReplicaPutCostIndependentOfHeld(t *testing.T) {
	n := startHealNode(t, "n1")
	front := netserve.New(n.srv, netserve.Config{NodeID: "n1", Recovery: n.mgr})
	driveStream(n, 0, 3)
	snap, _ := n.srv.SnapshotStream(0)
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(netserve.ReplicaPutRequest{Owner: "n2", SnapshotB64: base64.StdEncoding.EncodeToString(blob)})
	if err != nil {
		t.Fatal(err)
	}
	put := func() {
		rec := httptest.NewRecorder()
		front.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/replicas/1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("replica PUT: status %d: %s", rec.Code, rec.Body)
		}
	}
	const runs = 50
	cost := func(held int) (allocs, bytes float64) {
		for s := len(n.mgr.replicas); s < held; s++ {
			n.mgr.StoreReplica(1000+s, "n2", 1, snap)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, put) // runs once more to warm up
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	fewA, fewB := cost(10)
	manyA, manyB := cost(10000)
	slack := 0.0
	if raceEnabled {
		slack = 2
	}
	if manyA > fewA+slack || manyB > fewB+1024 {
		t.Errorf("replica PUT with 10,000 held: %.1f allocs, %.0f B; with 10: %.1f allocs, %.0f B — want no more", manyA, manyB, fewA, fewB)
	}
}

// TestRestoringIdleTakesNoLock: with no restore in flight, Restoring — which
// the front end calls for every op it serves — answers without Manager.mu,
// so a replication or failover pass holding it stalls no op.
func TestRestoringIdleTakesNoLock(t *testing.T) {
	n := startHealNode(t, "n1")
	n.mgr.mu.Lock()
	defer n.mgr.mu.Unlock()
	done := make(chan bool, 1)
	go func() { done <- n.mgr.Restoring(3) }()
	select {
	case restoring := <-done:
		if restoring {
			t.Error("Restoring(3) = true with no restore in flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Restoring waited on Manager.mu with no restore in flight")
	}
}
