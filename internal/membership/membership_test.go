package membership

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock shared by every agent in a test, so
// lease expiry is exact rather than sleep-based.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// memTransport wires agents together in process. Downed addresses error
// like a refused connection would.
type memTransport struct {
	mu     sync.Mutex
	agents map[string]*Agent // by addr
	down   map[string]bool
}

func newMemTransport() *memTransport {
	return &memTransport{agents: map[string]*Agent{}, down: map[string]bool{}}
}

func (t *memTransport) add(a *Agent) {
	t.mu.Lock()
	t.agents[a.Addr()] = a
	t.mu.Unlock()
}

func (t *memTransport) setDown(addr string, down bool) {
	t.mu.Lock()
	t.down[addr] = down
	t.mu.Unlock()
}

func (t *memTransport) Heartbeat(_ context.Context, addr string, hb Heartbeat) (View, error) {
	t.mu.Lock()
	target, ok := t.agents[addr]
	down := t.down[addr]
	t.mu.Unlock()
	if !ok || down {
		return View{}, fmt.Errorf("memtransport: %s unreachable", addr)
	}
	return target.HandleHeartbeat(hb), nil
}

// newTestAgent builds an agent on the shared clock/transport with tight,
// test-friendly lease timeouts: suspect after 40ms of silence, dead after
// 100ms.
func newTestAgent(t testing.TB, clock *fakeClock, tr *memTransport, id, addr string, seeds []string) *Agent {
	t.Helper()
	a, err := New(Config{
		ID:             id,
		Addr:           addr,
		Seeds:          seeds,
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      100 * time.Millisecond,
		Transport:      tr,
		Now:            clock.Now,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	tr.add(a)
	return a
}

// beatAll runs one synchronous heartbeat round for every agent.
func beatAll(agents ...*Agent) {
	for _, a := range agents {
		a.beat(context.Background())
	}
}

func tickAll(agents ...*Agent) {
	for _, a := range agents {
		a.Tick()
	}
}

func stateOf(t *testing.T, a *Agent, id string) State {
	t.Helper()
	e, ok := a.View().Entry(id)
	if !ok {
		t.Fatalf("agent %s has no entry for %s", a.cfg.ID, id)
	}
	return e.State
}

// TestTransitiveDiscovery: n1 seeds only n2, n3 seeds only n2 — after a
// couple of beats everyone must know everyone, because views piggyback on
// heartbeats.
func TestTransitiveDiscovery(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a1 := newTestAgent(t, clock, tr, "n1", "h1:1", []string{"h2:2"})
	a2 := newTestAgent(t, clock, tr, "n2", "h2:2", nil)
	a3 := newTestAgent(t, clock, tr, "n3", "h3:3", []string{"h2:2"})

	beatAll(a1, a3) // n1,n3 introduce themselves to n2
	beatAll(a1, a3) // second beat picks each other up from n2's reply

	for _, a := range []*Agent{a1, a2, a3} {
		v := a.View()
		if len(v.Entries) != 3 {
			t.Fatalf("agent %s sees %d members, want 3: %+v", a.cfg.ID, len(v.Entries), v.Entries)
		}
		for _, id := range []string{"n1", "n2", "n3"} {
			if stateOf(t, a, id) != StateAlive {
				t.Errorf("agent %s sees %s as %s, want alive", a.cfg.ID, id, stateOf(t, a, id))
			}
		}
	}
}

// TestSuspectThenDead walks the lease state machine on a silent peer and
// checks the member set (ring input) drops the peer only at death.
func TestSuspectThenDead(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a1 := newTestAgent(t, clock, tr, "n1", "h1:1", []string{"h2:2"})
	a2 := newTestAgent(t, clock, tr, "n2", "h2:2", []string{"h1:1"})
	beatAll(a1, a2)

	tr.setDown("h2:2", true)
	clock.Advance(50 * time.Millisecond) // past SuspectAfter (40ms)
	beatAll(a1)
	tickAll(a1)
	if got := stateOf(t, a1, "n2"); got != StateSuspect {
		t.Fatalf("after %v silence n2 is %s, want suspect", 50*time.Millisecond, got)
	}
	// Suspicion is a grace period: the member set must still include n2.
	if members := a1.Members(); len(members) != 2 {
		t.Fatalf("suspect member fell out of the member set: %v", members)
	}

	clock.Advance(60 * time.Millisecond) // total 110ms > DeadAfter (100ms)
	tickAll(a1)
	if got := stateOf(t, a1, "n2"); got != StateDead {
		t.Fatalf("after 110ms silence n2 is %s, want dead", got)
	}
	if members := a1.Members(); len(members) != 1 || members[0] != "h1:1" {
		t.Fatalf("dead member still in member set: %v", members)
	}
}

// TestDirectContactRenewsSuspect: a suspected member that answers again
// goes straight back to alive — no incarnation ceremony for a slow peer.
func TestDirectContactRenewsSuspect(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a1 := newTestAgent(t, clock, tr, "n1", "h1:1", []string{"h2:2"})
	a2 := newTestAgent(t, clock, tr, "n2", "h2:2", []string{"h1:1"})
	beatAll(a1, a2)

	tr.setDown("h2:2", true)
	clock.Advance(50 * time.Millisecond)
	tickAll(a1)
	if got := stateOf(t, a1, "n2"); got != StateSuspect {
		t.Fatalf("n2 is %s, want suspect", got)
	}
	tr.setDown("h2:2", false)
	beatAll(a1) // direct reply renews the lease
	if got := stateOf(t, a1, "n2"); got != StateAlive {
		t.Fatalf("n2 is %s after direct contact, want alive", got)
	}
}

// TestGossipedAliveDoesNotResurrect: once n1 declares n2 dead, a third
// party relaying "n2 alive" at the same incarnation must not revive it —
// only n2 itself can, with a higher incarnation.
func TestGossipedAliveDoesNotResurrect(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a1 := newTestAgent(t, clock, tr, "n1", "h1:1", []string{"h2:2"})
	a2 := newTestAgent(t, clock, tr, "n2", "h2:2", []string{"h1:1"})
	beatAll(a1, a2)

	tr.setDown("h2:2", true)
	clock.Advance(150 * time.Millisecond)
	tickAll(a1)
	if got := stateOf(t, a1, "n2"); got != StateDead {
		t.Fatalf("n2 is %s, want dead", got)
	}

	// A stale third-party view still believes n2 alive at incarnation 1.
	stale := View{Version: 9, Entries: []Entry{
		{ID: "n2", Addr: "h2:2", Incarnation: 1, State: StateAlive},
	}}
	merge(a1, stale)
	if got := stateOf(t, a1, "n2"); got != StateDead {
		t.Fatalf("gossiped alive resurrected n2 (state %s)", got)
	}

	// But n2 itself, refuting with a higher incarnation, wins.
	refute := View{Version: 1, Entries: []Entry{
		{ID: "n2", Addr: "h2:2", Incarnation: 2, State: StateAlive},
	}}
	merge(a1, refute)
	if got := stateOf(t, a1, "n2"); got != StateAlive {
		t.Fatalf("incarnation refutation did not revive n2 (state %s)", got)
	}
}

// TestSelfRefutation: an agent that learns it is suspected must bump its
// incarnation above the rumor and reassert alive.
func TestSelfRefutation(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a2 := newTestAgent(t, clock, tr, "n2", "h2:2", nil)

	rumor := View{Version: 3, Entries: []Entry{
		{ID: "n2", Addr: "h2:2", Incarnation: 1, State: StateSuspect},
	}}
	merge(a2, rumor)
	self, _ := a2.View().Entry("n2")
	if self.Incarnation != 2 || self.State != StateAlive {
		t.Fatalf("self entry after rumor = %+v, want incarnation 2 alive", self)
	}

	// A rumor carrying a HIGHER incarnation (e.g. from a previous life)
	// must be out-bid, not merely matched.
	merge(a2, View{Version: 4, Entries: []Entry{
		{ID: "n2", Addr: "h2:2", Incarnation: 7, State: StateDead},
	}})
	self, _ = a2.View().Entry("n2")
	if self.Incarnation != 8 || self.State != StateAlive {
		t.Fatalf("self entry after dead rumor = %+v, want incarnation 8 alive", self)
	}
}

// TestDeathSpreadsByGossip: n3 never loses contact with anyone, but must
// still learn of n2's death from n1's piggybacked view.
func TestDeathSpreadsByGossip(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a1 := newTestAgent(t, clock, tr, "n1", "h1:1", []string{"h2:2", "h3:3"})
	a2 := newTestAgent(t, clock, tr, "n2", "h2:2", []string{"h1:1"})
	a3 := newTestAgent(t, clock, tr, "n3", "h3:3", []string{"h1:1"})
	beatAll(a1, a2, a3)
	beatAll(a1, a2, a3)

	// n2 dies. Only n1 runs its lease clock (n3 never Ticks), so n1 ages
	// n2 out while keeping n3's lease warm with each beat — then n1's
	// heartbeat to n3 carries the tombstone.
	tr.setDown("h2:2", true)
	for i := 0; i < 3; i++ {
		clock.Advance(60 * time.Millisecond)
		a1.beat(context.Background())
		a1.Tick()
	}
	if got := stateOf(t, a1, "n2"); got != StateDead {
		t.Fatalf("n1 sees n2 as %s, want dead", got)
	}
	if got := stateOf(t, a1, "n3"); got != StateAlive {
		t.Fatalf("n1 sees n3 as %s, want alive (its lease was renewed each beat)", got)
	}
	if got := stateOf(t, a3, "n2"); got != StateDead {
		t.Fatalf("n3 sees n2 as %s after gossip, want dead", got)
	}
}

// TestOnChangeFires: every belief change produces exactly one callback
// with a version-bumped view.
func TestOnChangeFires(t *testing.T) {
	clock := newFakeClock()
	var (
		mu    sync.Mutex
		calls []uint64
	)
	a, err := New(Config{
		ID:   "n1",
		Addr: "h1:1",
		Now:  clock.Now,
		OnChange: func(v View) {
			mu.Lock()
			calls = append(calls, v.Version)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	merge(a, View{Entries: []Entry{{ID: "n2", Addr: "h2:2", Incarnation: 1, State: StateAlive}}})
	merge(a, View{Entries: []Entry{{ID: "n2", Addr: "h2:2", Incarnation: 1, State: StateAlive}}}) // no-op
	merge(a, View{Entries: []Entry{{ID: "n2", Addr: "h2:2", Incarnation: 1, State: StateDead}}})
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("OnChange fired %d times (%v), want 2", len(calls), calls)
	}
	if calls[1] <= calls[0] {
		t.Fatalf("versions not monotonic: %v", calls)
	}
}

// TestMergeViewsLattice pins the client-side merge's join properties on a
// hand-built set of conflicting views: commutativity and idempotence are
// what let clients poll members in any order and still converge.
func TestMergeViewsLattice(t *testing.T) {
	va := View{Version: 2, Entries: []Entry{
		{ID: "n1", Addr: "h1:1", Incarnation: 1, State: StateAlive},
		{ID: "n2", Addr: "h2:2", Incarnation: 2, State: StateAlive},
		{ID: "n3", Addr: "h3:3", Incarnation: 1, State: StateDead},
	}}
	vb := View{Version: 5, Entries: []Entry{
		{ID: "n2", Addr: "h2:2", Incarnation: 2, State: StateSuspect},
		{ID: "n3", Addr: "h3:3", Incarnation: 1, State: StateAlive},
		{ID: "n4", Addr: "h4:4", Incarnation: 1, State: StateAlive},
	}}

	ab, _ := MergeViews(va, vb)
	ba, _ := MergeViews(vb, va)
	abJSON, err := EncodeView(ab)
	if err != nil {
		t.Fatalf("merged view not canonical: %v", err)
	}
	baJSON, _ := EncodeView(ba)
	if !bytes.Equal(abJSON, baJSON) {
		t.Fatalf("merge not commutative:\n a+b %s\n b+a %s", abJSON, baJSON)
	}

	again, changed := MergeViews(ab, vb)
	if changed {
		t.Fatalf("re-merging an absorbed view reported a change")
	}
	againJSON, _ := EncodeView(again)
	if !bytes.Equal(abJSON, againJSON) {
		t.Fatalf("merge not idempotent:\n once %s\n twice %s", abJSON, againJSON)
	}

	// Spot-check the join: n2 worse-state wins at equal incarnation, n3
	// dead wins over alive, n4 discovered.
	if e, _ := ab.Entry("n2"); e.State != StateSuspect {
		t.Errorf("n2 merged to %s, want suspect (worse state wins)", e.State)
	}
	if e, _ := ab.Entry("n3"); e.State != StateDead {
		t.Errorf("n3 merged to %s, want dead (dead is sticky)", e.State)
	}
	if _, ok := ab.Entry("n4"); !ok {
		t.Errorf("n4 lost in merge")
	}

	// Higher incarnation wins wholesale, even against a worse state.
	vc := View{Entries: []Entry{{ID: "n3", Addr: "h3:3b", Incarnation: 2, State: StateAlive}}}
	cd, _ := MergeViews(ab, vc)
	if e, _ := cd.Entry("n3"); e.State != StateAlive || e.Addr != "h3:3b" || e.Incarnation != 2 {
		t.Errorf("n3 refutation merged to %+v, want alive@h3:3b inc 2", e)
	}
}

// TestWireRejects: malformed payloads must be refused at decode, never
// reach the state machine.
func TestWireRejects(t *testing.T) {
	cases := map[string]string{
		"unsorted entries": `{"from":"a","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"b","addr":"x","incarnation":1,"state":"alive"},` +
			`{"id":"a","addr":"y","incarnation":1,"state":"alive"}]}}`,
		"duplicate id": `{"from":"a","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"a","addr":"x","incarnation":1,"state":"alive"},` +
			`{"id":"a","addr":"y","incarnation":1,"state":"alive"}]}}`,
		"empty id": `{"from":"a","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"","addr":"x","incarnation":1,"state":"alive"}]}}`,
		"empty addr": `{"from":"a","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"a","addr":"","incarnation":1,"state":"alive"}]}}`,
		"unknown state": `{"from":"a","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"a","addr":"x","incarnation":1,"state":"zombie"}]}}`,
		"missing self entry": `{"from":"ghost","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"a","addr":"x","incarnation":1,"state":"alive"}]}}`,
		"empty from": `{"from":"","seq":1,"view":{"version":1}}`,
		"unknown field": `{"from":"a","seq":1,"bogus":true,"view":{"version":1,"entries":[` +
			`{"id":"a","addr":"x","incarnation":1,"state":"alive"}]}}`,
		"trailing data": `{"from":"a","seq":1,"view":{"version":1,"entries":[` +
			`{"id":"a","addr":"x","incarnation":1,"state":"alive"}]}}{}`,
		"not json": `hello`,
	}
	for name, payload := range cases {
		if _, err := DecodeHeartbeat([]byte(payload)); err == nil {
			t.Errorf("%s: decode accepted %q", name, payload)
		}
	}
}

// TestWireRoundTrip: a live agent's heartbeat encodes, decodes, and
// re-encodes byte-identically.
func TestWireRoundTrip(t *testing.T) {
	clock := newFakeClock()
	tr := newMemTransport()
	a := newTestAgent(t, clock, tr, "n1", "h1:1", nil)
	merge(a, View{Entries: []Entry{
		{ID: "n2", Addr: "h2:2", Incarnation: 3, State: StateSuspect},
		{ID: "n3", Addr: "h3:3", Incarnation: 1, State: StateDead},
	}})
	hb := Heartbeat{From: "n1", Seq: 42, View: a.View()}
	enc, err := EncodeHeartbeat(hb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeHeartbeat(enc)
	if err != nil {
		t.Fatalf("decode own encoding: %v", err)
	}
	enc2, err := EncodeHeartbeat(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip not byte-identical:\n %s\n %s", enc, enc2)
	}
}

// merge folds a gossiped view into a: a heartbeat naming no sender renews
// no lease, so only the view's entries take effect.
func merge(a *Agent, v View) { a.HandleHeartbeat(Heartbeat{View: v}) }
