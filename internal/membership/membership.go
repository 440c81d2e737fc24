// Package membership gives every alertserve node a live, self-maintained
// picture of the cluster: who exists, where they listen, and whether they
// are alive, suspected, or dead. It is a lease protocol, not a consensus
// protocol — each node heartbeats every peer it knows, piggybacking its
// full view on every beat (peer exchange: reaching one member is enough
// to transitively discover the rest), and expires leases through a
// suspicion window before declaring death:
//
//	alive --SuspectAfter without contact--> suspect
//	suspect --DeadAfter without contact--> dead
//	suspect --direct contact--> alive           (lease renewed)
//	dead --higher incarnation--> alive          (only the member itself)
//
// "Direct contact" is a heartbeat received from the member or a reply to
// one we sent it; gossiped "alive" never renews a lease, so a partition
// rumor cannot keep a corpse warm. Death is sticky at a given
// incarnation: a member that finds itself suspected or declared dead in
// someone's view refutes by incrementing its own incarnation, which wins
// every merge wholesale. That asymmetry (anyone can worsen, only the
// subject can improve) makes the merged state a lattice join and the
// whole cluster's beliefs convergent regardless of message order.
//
// The view is versioned per node (every local belief change bumps it) and
// served on /v1/membership; client/cluster polls and merges these views
// to rebuild its routing ring with no operator in the loop, and
// internal/selfheal subscribes to state transitions to trigger failover.
package membership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Endpoint is the HTTP path membership speaks on: GET returns the node's
// current view, POST delivers a heartbeat and returns the merged view.
const Endpoint = "/v1/membership"

// Transport delivers one heartbeat to a peer address and returns the
// peer's view (its heartbeat reply). Implementations set their own
// timeouts; an error just means the lease is not renewed this round.
type Transport interface {
	Heartbeat(ctx context.Context, addr string, hb Heartbeat) (View, error)
}

// Config configures an Agent.
type Config struct {
	// ID uniquely names this node instance (alertserve -node-id). Required.
	ID string
	// Addr is the address peers and clients dial to reach this node.
	// Required; it is what the hash ring hashes, so it must match what
	// clients route on.
	Addr string
	// Incarnation seeds this instance's incarnation number. It must
	// exceed any incarnation a previous instance of the same ID ever
	// advertised, or the cluster's memory of the old instance's death
	// outvotes the new instance; wall-clock nanoseconds at startup works.
	// 0 means 1.
	Incarnation uint64
	// Seeds are peer addresses to heartbeat before they appear in the
	// view (the bootstrap set). IDs are learned from their replies.
	Seeds []string
	// HeartbeatEvery is the gossip period. 0 means 250ms.
	HeartbeatEvery time.Duration
	// SuspectAfter is how long without direct contact before a peer's
	// lease lapses into suspicion. 0 means 4×HeartbeatEvery.
	SuspectAfter time.Duration
	// DeadAfter is how long without direct contact before a suspected
	// peer is declared dead. Must exceed SuspectAfter. 0 means
	// 3×SuspectAfter.
	DeadAfter time.Duration
	// Transport sends heartbeats. Required for Run; an agent that only
	// answers (HandleHeartbeat) can leave it nil.
	Transport Transport
	// Now is the clock, injectable for tests. Nil means time.Now.
	Now func() time.Time
	// OnChange, if set, is called with a fresh view snapshot after every
	// version bump, outside the agent's lock. Keep it fast or hand off to
	// a goroutine; it runs on heartbeat and tick paths.
	OnChange func(View)
	// Logf, if set, receives one line per state transition.
	Logf func(format string, args ...any)
}

type peerState struct {
	e       Entry
	lastAck time.Time // last direct contact; zero for dead peers
}

// Agent is one node's membership state machine. All methods are safe for
// concurrent use.
type Agent struct {
	cfg Config

	mu      sync.Mutex
	self    Entry
	peers   map[string]*peerState // by member ID
	version uint64
	seq     uint64
}

// New builds an agent. The agent is inert until Run (or until peers start
// delivering heartbeats to HandleHeartbeat).
func New(cfg Config) (*Agent, error) {
	if cfg.ID == "" {
		return nil, errors.New("membership: Config.ID required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("membership: Config.Addr required")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 4 * cfg.HeartbeatEvery
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3 * cfg.SuspectAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		return nil, fmt.Errorf("membership: DeadAfter (%v) must exceed SuspectAfter (%v)",
			cfg.DeadAfter, cfg.SuspectAfter)
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Agent{
		cfg: cfg,
		self: Entry{
			ID:          cfg.ID,
			Addr:        cfg.Addr,
			Incarnation: cfg.Incarnation,
			State:       StateAlive,
		},
		peers:   make(map[string]*peerState),
		version: 1,
	}, nil
}

// Addr returns this agent's advertised address.
func (a *Agent) Addr() string { return a.cfg.Addr }

// View returns a snapshot of this node's current belief: its own entry
// plus every known peer, ID-sorted, stamped with the local version.
func (a *Agent) View() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.viewLocked()
}

func (a *Agent) viewLocked() View {
	entries := make([]Entry, 0, len(a.peers)+1)
	entries = append(entries, a.self)
	for _, p := range a.peers {
		entries = append(entries, p.e)
	}
	sortEntries(entries)
	return View{Version: a.version, Entries: entries}
}

// Members returns the addresses of every member not known dead (self
// included), sorted and deduplicated — the hash-ring member set. Suspect
// members stay in: suspicion is a grace period, and yanking them from the
// ring on every slow probe is exactly the flap this layer exists to damp.
func (a *Agent) Members() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := map[string]bool{a.self.Addr: true}
	for _, p := range a.peers {
		if p.e.State != StateDead {
			set[p.e.Addr] = true
		}
	}
	out := make([]string, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// HandleHeartbeat is the receive side: merge the sender's view, renew the
// sender's lease (a heartbeat is direct contact), and return our merged
// view as the reply. Exported for the HTTP layer.
func (a *Agent) HandleHeartbeat(hb Heartbeat) View {
	now := a.cfg.Now()
	a.mu.Lock()
	changed := a.mergeLocked(hb.View, now)
	if a.ackLocked(hb.From, now) {
		changed = true
	}
	if changed {
		a.version++
	}
	v := a.viewLocked()
	a.mu.Unlock()
	if changed {
		a.notify(v)
	}
	return v
}

// mergeLocked applies the lattice join entry by entry. Caller holds a.mu
// and bumps version if it returns true.
func (a *Agent) mergeLocked(remote View, now time.Time) bool {
	changed := false
	for _, re := range remote.Entries {
		if re.ID == a.self.ID {
			// Someone believes something about US. If they hold a higher
			// incarnation, a past instance's number is circulating; if they
			// hold our incarnation with a non-alive state, we are being
			// suspected or buried. Either way: refute, loudly — adopt an
			// incarnation above theirs and reassert alive. Merges are
			// monotone in incarnation, so this wins everywhere it reaches.
			if re.Incarnation > a.self.Incarnation ||
				(re.Incarnation == a.self.Incarnation && re.State != StateAlive) {
				a.self.Incarnation = re.Incarnation + 1
				a.logf("membership %s: refuting %s rumor, incarnation now %d",
					a.cfg.ID, re.State, a.self.Incarnation)
				changed = true
			}
			continue
		}
		p, known := a.peers[re.ID]
		switch {
		case !known:
			np := &peerState{e: re}
			if re.State != StateDead {
				// Grant a discovered peer a full lease: we have zero direct
				// evidence either way, and instant suspicion of every
				// newcomer would make bootstrap a flap storm.
				np.lastAck = now
			}
			a.peers[re.ID] = np
			a.logf("membership %s: discovered %s (%s) %s inc=%d",
				a.cfg.ID, re.ID, re.Addr, re.State, re.Incarnation)
			changed = true
		case re.Incarnation > p.e.Incarnation:
			// A refutation or a restarted instance: adopt wholesale. A
			// higher incarnation asserting alive is fresh evidence of life,
			// so the lease renews too.
			old := p.e.State
			p.e = re
			if re.State != StateDead {
				p.lastAck = now
			}
			if old != re.State {
				a.logf("membership %s: %s %s -> %s (incarnation %d)",
					a.cfg.ID, re.ID, old, re.State, re.Incarnation)
			}
			changed = true
		case re.Incarnation == p.e.Incarnation && worse(re.State, p.e.State):
			// Same incarnation, worse news: adopt it. This is how a death
			// observed by one node spreads. Note the converse is absent on
			// purpose — gossiped "alive" at the same incarnation does NOT
			// clear local suspicion; only direct contact or a refutation
			// does.
			a.logf("membership %s: %s %s -> %s (gossip)",
				a.cfg.ID, re.ID, p.e.State, re.State)
			p.e.State = re.State
			changed = true
		}
	}
	return changed
}

// ackLocked records direct contact with a member: lease renewed, and a
// suspect is restored to alive. Dead stays dead — at the recorded
// incarnation the member must refute (it will, as soon as it sees our
// view naming it dead). Caller holds a.mu and bumps version on true.
func (a *Agent) ackLocked(id string, now time.Time) bool {
	p, ok := a.peers[id]
	if !ok || p.e.State == StateDead {
		return false
	}
	p.lastAck = now
	if p.e.State == StateSuspect {
		p.e.State = StateAlive
		a.logf("membership %s: %s suspect -> alive (direct contact)", a.cfg.ID, id)
		return true
	}
	return false
}

// ackAddrLocked renews the lease of whichever live peer answers at addr —
// the reply path of an outgoing heartbeat, where we dialed an address,
// not an ID.
func (a *Agent) ackAddrLocked(addr string, now time.Time) bool {
	changed := false
	for id, p := range a.peers {
		if p.e.Addr == addr && p.e.State != StateDead {
			if a.ackLocked(id, now) {
				changed = true
			}
		}
	}
	return changed
}

// Tick advances the lease clocks: alive members we have not heard from in
// SuspectAfter become suspect, and suspects silent for DeadAfter (since
// last contact) are declared dead. Run calls this every heartbeat period;
// tests call it directly with a synthetic clock.
func (a *Agent) Tick() {
	now := a.cfg.Now()
	a.mu.Lock()
	changed := false
	for id, p := range a.peers {
		silent := now.Sub(p.lastAck)
		switch p.e.State {
		case StateAlive:
			if silent > a.cfg.DeadAfter {
				// A stalled ticker (scheduling pause, clock jump) must not
				// grant a free extra suspicion window: the thresholds are
				// wall-clock leases, not tick counts.
				p.e.State = StateDead
				a.logf("membership %s: %s alive -> dead (%v silent)", a.cfg.ID, id, silent)
				changed = true
			} else if silent > a.cfg.SuspectAfter {
				p.e.State = StateSuspect
				a.logf("membership %s: %s alive -> suspect (%v silent)", a.cfg.ID, id, silent)
				changed = true
			}
		case StateSuspect:
			if silent > a.cfg.DeadAfter {
				p.e.State = StateDead
				a.logf("membership %s: %s suspect -> dead (%v silent)", a.cfg.ID, id, silent)
				changed = true
			}
		}
	}
	if changed {
		a.version++
	}
	v := a.viewLocked()
	a.mu.Unlock()
	if changed {
		a.notify(v)
	}
}

// Run heartbeats every known peer (and every seed not yet in the view)
// once per HeartbeatEvery, merging replies and expiring leases, until ctx
// is cancelled. Dead members are not dialed — their tombstones ride the
// gossip instead; a resurrected instance announces itself with a higher
// incarnation.
func (a *Agent) Run(ctx context.Context) {
	ticker := time.NewTicker(a.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		a.beat(ctx)
		a.Tick()
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// beat sends one round of heartbeats concurrently and merges the replies.
func (a *Agent) beat(ctx context.Context) {
	if a.cfg.Transport == nil {
		return
	}
	a.mu.Lock()
	a.seq++
	hb := Heartbeat{From: a.cfg.ID, Seq: a.seq, View: a.viewLocked()}
	targets := make([]string, 0, len(a.peers)+len(a.cfg.Seeds))
	known := map[string]bool{a.self.Addr: true}
	for _, p := range a.peers {
		known[p.e.Addr] = true
		if p.e.State != StateDead {
			targets = append(targets, p.e.Addr)
		}
	}
	for _, s := range a.cfg.Seeds {
		if !known[s] {
			known[s] = true
			targets = append(targets, s)
		}
	}
	a.mu.Unlock()

	sendCtx, cancel := context.WithTimeout(ctx, a.cfg.HeartbeatEvery)
	defer cancel()
	var wg sync.WaitGroup
	for _, addr := range targets {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			reply, err := a.cfg.Transport.Heartbeat(sendCtx, addr, hb)
			if err != nil {
				return // lease simply not renewed this round
			}
			now := a.cfg.Now()
			a.mu.Lock()
			changed := a.mergeLocked(reply, now)
			if a.ackAddrLocked(addr, now) {
				changed = true
			}
			if changed {
				a.version++
			}
			v := a.viewLocked()
			a.mu.Unlock()
			if changed {
				a.notify(v)
			}
		}(addr)
	}
	wg.Wait()
}

func (a *Agent) notify(v View) {
	if a.cfg.OnChange != nil {
		a.cfg.OnChange(v)
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

func sortEntries(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
}
