package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/netserve"
)

// memberNode is a membership-enabled test node.
type memberNode struct {
	id    string
	url   string
	agent *membership.Agent
}

// startMemberNode stands up a node serving /v1/membership. The handler
// indirection exists because the agent's advertised address is the
// listener URL, which is only known after the listener starts.
func startMemberNode(t *testing.T, id string) *memberNode {
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
	agent, err := membership.New(membership.Config{ID: id, Addr: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	handler = netserve.New(srv, netserve.Config{NodeID: id, Membership: agent})
	return &memberNode{id: id, url: ts.URL, agent: agent}
}

// connectAgents merges a converged all-alive view into every agent.
func connectAgents(nodes ...*memberNode) {
	entries := make([]membership.Entry, 0, len(nodes))
	for _, n := range nodes {
		entries = append(entries, membership.Entry{
			ID: n.id, Addr: n.url, Incarnation: 1, State: membership.StateAlive,
		})
	}
	v := membership.View{Version: 1, Entries: entries}
	for _, n := range nodes {
		n.agent.Merge(v)
	}
}

func sameMembers(t *testing.T, c *Cluster, want ...string) {
	t.Helper()
	got := c.Members()
	if !sameSet(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
}

// TestSyncMembershipFollowsViews: the cluster's member set follows the
// merged membership view — deaths eject, discoveries join — with no
// AddMember/RemoveMember calls from the outside.
func TestSyncMembershipFollowsViews(t *testing.T) {
	n1, n2, n3 := startMemberNode(t, "n1"), startMemberNode(t, "n2"), startMemberNode(t, "n3")
	connectAgents(n1, n2, n3)

	cl, err := New([]string{n1.url, n2.url, n3.url}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.SyncMembership(context.Background()); err != nil {
		t.Fatalf("steady-state sync: %v", err)
	}
	sameMembers(t, cl, n1.url, n2.url, n3.url)

	// n3's lease expires: survivors' agents mark it dead; the next sync
	// must eject it and rebuild the ring.
	tomb := membership.View{Version: 2, Entries: []membership.Entry{{
		ID: n3.id, Addr: n3.url, Incarnation: 1, State: membership.StateDead,
	}}}
	n1.agent.Merge(tomb)
	n2.agent.Merge(tomb)
	if err := cl.SyncMembership(context.Background()); err != nil {
		t.Fatalf("post-death sync: %v", err)
	}
	sameMembers(t, cl, n1.url, n2.url)
	if owner := cl.Route(1); owner == n3.url {
		t.Fatal("ring still routes to the ejected member")
	}

	// A new node joins and is gossiped into just one survivor's view; the
	// merged view carries it to the client.
	n4 := startMemberNode(t, "n4")
	connectAgents(n4)
	n1.agent.Merge(membership.View{Version: 3, Entries: []membership.Entry{{
		ID: n4.id, Addr: n4.url, Incarnation: 1, State: membership.StateAlive,
	}}})
	if err := cl.SyncMembership(context.Background()); err != nil {
		t.Fatalf("post-join sync: %v", err)
	}
	sameMembers(t, cl, n1.url, n2.url, n4.url)
}

// TestSyncFlapDamping is the stall-proxy regression: a member whose
// probes time out but whose lease the cluster's own detector still honors
// (slow, not dead) must never be ejected — eject/re-add churn remaps
// streams and forks sessions, which is worse than routing to a slow node.
func TestSyncFlapDamping(t *testing.T) {
	n1, n2 := startMemberNode(t, "n1"), startMemberNode(t, "n2")

	// n3 sits behind a proxy that stalls every request past the probe
	// deadline: reachable by the cluster's heartbeats, dead to this
	// client's probes.
	n3backend, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n3backend.Close)
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		http.Error(w, "stalled", http.StatusBadGateway)
	}))
	t.Cleanup(stall.Close)
	n3agent, err := membership.New(membership.Config{ID: "n3", Addr: stall.URL})
	if err != nil {
		t.Fatal(err)
	}
	n3 := &memberNode{id: "n3", url: stall.URL, agent: n3agent}
	connectAgents(n1, n2, n3)

	cl, err := New([]string{n1.url, n2.url, n3.url}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	changes := 0
	cl.setSyncOnChange(func([]string) { changes++ })

	// Far more rounds than any failure threshold: every probe of n3
	// fails, yet the merged view from n1/n2 says alive, so n3 stays.
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := cl.SyncMembership(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameMembers(t, cl, n1.url, n2.url, n3.url)
	}
	if changes != 0 {
		t.Fatalf("member set flapped %d times for a slow-but-alive node", changes)
	}
}

// TestSyncStaticNodeGrace: a member no view covers (a node running
// without membership) survives probe failures up to the flap-damping
// threshold, then is ejected on probe evidence alone.
func TestSyncStaticNodeGrace(t *testing.T) {
	n1 := startMemberNode(t, "n1")
	connectAgents(n1)
	// A static node that is simply gone: probes fail outright.
	deadURL := "http://127.0.0.1:1"

	cl, err := New([]string{n1.url, deadURL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.setFailThreshold(3)

	for round := 1; round <= 2; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := cl.SyncMembership(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameMembers(t, cl, n1.url, deadURL) // within grace
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := cl.SyncMembership(ctx); err != nil {
		t.Fatalf("threshold round: %v", err)
	}
	sameMembers(t, cl, n1.url) // grace exhausted
}

// TestSyncKeepsSetWhenBlind: if no member serves a view the client keeps
// its routing state — an unreachable cluster is not a reason to dismantle
// the ring.
func TestSyncKeepsSetWhenBlind(t *testing.T) {
	// Plain nodes: /v1/membership answers 404 everywhere.
	a := startNode(t, "a", 1)
	b := startNode(t, "b", 1)
	cl, err := New([]string{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for round := 0; round < 5; round++ {
		if err := cl.SyncMembership(context.Background()); err == nil {
			t.Fatal("blind sync must report it reached no view")
		}
		sameMembers(t, cl, a, b)
	}
}

// TestStartSyncLoop: the background loop follows a death end-to-end and
// stops cleanly on cancel.
func TestStartSyncLoop(t *testing.T) {
	n1, n2, n3 := startMemberNode(t, "n1"), startMemberNode(t, "n2"), startMemberNode(t, "n3")
	connectAgents(n1, n2, n3)

	cl, err := New([]string{n1.url, n2.url, n3.url}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	changed := make(chan []string, 8)
	stop := cl.StartSync(ctx, SyncOptions{
		Interval: 10 * time.Millisecond,
		Seed:     42,
		OnChange: func(ms []string) { changed <- ms },
	})

	tomb := membership.View{Version: 2, Entries: []membership.Entry{{
		ID: n3.id, Addr: n3.url, Incarnation: 1, State: membership.StateDead,
	}}}
	n1.agent.Merge(tomb)
	n2.agent.Merge(tomb)

	select {
	case ms := <-changed:
		if !sameSet(ms, []string{n1.url, n2.url}) {
			t.Fatalf("sync loop converged to %v, want survivors only", ms)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sync loop never ejected the dead member")
	}
	cancel()
	stop()
	sameMembers(t, cl, n1.url, n2.url)
}
