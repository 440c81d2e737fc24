package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/client/cluster"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/selfheal"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// Unmanaged drills run the cluster's own failure detector with tight
// leases so a kill is absorbed in well under a second of wall time. The
// convergence grace is deliberately loose: it bounds how long the harness
// waits before calling a failover broken, not how fast a healthy one is.
const (
	unmanagedHeartbeat = 25 * time.Millisecond
	unmanagedSuspect   = 120 * time.Millisecond
	unmanagedDead      = 300 * time.Millisecond
	convergeGrace      = 20 * time.Second
)

// Options configures a Harness.
type Options struct {
	// Fleet is the compiled chaos schedule to drive. Required.
	Fleet *scenario.FleetTrace
	// Task selects the workload; the zero value means image classification.
	Task dnn.Task
	// Base is the nominal request spec. A zero Base selects MinimizeEnergy
	// with a deadline of 1.25× the slowest candidate's latency at full
	// power and accuracy goal 0.92 (the alertload defaults).
	Base alert.Spec
	// Shards sets each node's shard count, cycling if shorter than the
	// fleet; empty means 1+index (deliberately heterogeneous, exercising
	// shard-count-invariant replay).
	Shards []int
	// Seed drives the per-stream workload/environment randomness; 0 means
	// the fleet trace's compile seed.
	Seed int64
	// Binary gives every node a binwire listener next to its HTTP one and
	// upgrades the cluster clients onto it (PreferBinary): the same
	// failure drill, but with the per-input loop riding the binary
	// transport (checkpoint taps and migrations stay on HTTP).
	// Kills sever binary connections exactly like HTTP ones, and restarts
	// rebind the same remembered binary address.
	Binary bool
	// Adaptive runs every node's admission gate with the measured-delay
	// controller and SLO shedder on (internal/overload): the same failure
	// drill, but with the limits moving under load. The harness invariants
	// must hold either way — admission policy decides whether a request
	// runs, never what it computes.
	Adaptive bool
	// Logf, when set, receives progress lines (round, events) as the run
	// unfolds; nil is silent.
	Logf func(format string, args ...any)
}

// node is one in-process cluster member: a real alert.Server behind a real
// netserve front end on a real loopback listener, so a "kill" severs actual
// TCP connections and a "restart" rebinds the same address with an empty
// stream table — exactly what a crashed process would do.
type node struct {
	id     string
	index  int
	shards int
	// hostport is remembered across restarts so the node keeps its address
	// (first start binds :0 and records what it got).
	hostport string
	addr     string // http://hostport
	// binary adds a binwire listener; binHostport is remembered across
	// restarts like hostport, so PreferBinary clients redial the same
	// advertised address after a restart.
	binary      bool
	binHostport string
	// adaptive turns on the measured-delay controller + SLO shedder for
	// the node's admission gate (survives restarts like the addresses).
	adaptive bool
	// selfHealing wires a membership agent and selfheal manager into the
	// node (unmanaged fleets); managed fleets leave both nil and the
	// harness orchestrates failures itself, as before.
	selfHealing bool

	srv    *alert.Server
	front  *netserve.Server
	bsrv   *netserve.BinaryServer
	hsrv   *http.Server
	agent  *membership.Agent
	heal   *selfheal.Manager
	cancel context.CancelFunc // stops the agent's heartbeat loop
	alive  bool
}

// listen binds the node's address (remembered across restarts) without
// starting anything, so a self-healing fleet can learn every peer address
// before the first agent sends a heartbeat.
func (n *node) listen() (net.Listener, error) {
	listenOn := n.hostport
	if listenOn == "" {
		listenOn = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenOn)
	if err != nil {
		return nil, fmt.Errorf("chaos: node %s: listen %s: %w", n.id, listenOn, err)
	}
	n.hostport = ln.Addr().String()
	n.addr = "http://" + n.hostport
	return ln, nil
}

// serve builds the stream table, the (optional) membership agent and
// self-healing manager, and the front end, then starts serving on ln.
// peers seeds the agent; ignored for non-self-healing nodes.
func (n *node) serve(ln net.Listener, peers []string) error {
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: n.shards})
	if err != nil {
		ln.Close()
		return fmt.Errorf("chaos: node %s: %w", n.id, err)
	}
	n.srv = srv
	cfg := netserve.Config{NodeID: n.id, Adaptive: n.adaptive, SLOShed: n.adaptive}
	if n.selfHealing {
		agent, err := membership.New(membership.Config{
			ID:             n.id,
			Addr:           n.addr,
			Seeds:          peers,
			HeartbeatEvery: unmanagedHeartbeat,
			SuspectAfter:   unmanagedSuspect,
			DeadAfter:      unmanagedDead,
			Transport:      &membership.HTTPTransport{},
			OnChange: func(v membership.View) {
				if n.heal != nil {
					n.heal.OnViewChange(v)
				}
			},
		})
		if err != nil {
			ln.Close()
			srv.Close()
			return fmt.Errorf("chaos: node %s: %w", n.id, err)
		}
		heal, err := selfheal.New(selfheal.Config{
			NodeID: n.id, Addr: n.addr, Agent: agent, Server: srv,
		})
		if err != nil {
			ln.Close()
			srv.Close()
			return fmt.Errorf("chaos: node %s: %w", n.id, err)
		}
		n.agent, n.heal = agent, heal
		cfg.Membership, cfg.Recovery = agent, heal
		ctx, cancel := context.WithCancel(context.Background())
		n.cancel = cancel
		go agent.Run(ctx)
	}
	n.front = netserve.New(srv, cfg)
	if n.binary {
		listenOn := n.binHostport
		if listenOn == "" {
			listenOn = "127.0.0.1:0"
		}
		bln, err := net.Listen("tcp", listenOn)
		if err != nil {
			ln.Close()
			srv.Close()
			if n.cancel != nil {
				n.cancel()
			}
			return fmt.Errorf("chaos: node %s: binary listen %s: %w", n.id, listenOn, err)
		}
		n.binHostport = bln.Addr().String()
		n.bsrv = netserve.NewBinary(n.front, bln, netserve.BinaryConfig{})
		go n.bsrv.Serve()
	}
	n.hsrv = &http.Server{Handler: n.front}
	go n.hsrv.Serve(ln)
	n.alive = true
	return nil
}

// start is listen+serve in one step — the managed path, where peers are
// irrelevant (restarts only happen in managed fleets).
func (n *node) start() error {
	ln, err := n.listen()
	if err != nil {
		return err
	}
	return n.serve(ln, nil)
}

// stop takes the node down hard: listener and in-flight connections are
// severed, the pool is closed, the stream table is gone. Graceful kills
// migrate everything away before calling this. For self-healing nodes the
// heartbeat loop dies with the process, exactly like kill -9 would.
func (n *node) stop() {
	if !n.alive {
		return
	}
	n.alive = false
	if n.cancel != nil {
		n.cancel()
	}
	if n.bsrv != nil {
		n.bsrv.Close()
		n.bsrv = nil
	}
	n.hsrv.Close()
	n.srv.Close()
	n.srv, n.front, n.hsrv = nil, nil, nil
	n.agent, n.heal, n.cancel = nil, nil, nil
}

// checkpointRec is one stream's latest checkpoint: the snapshot plus the
// round it was taken (for divergence reporting).
type checkpointRec struct {
	snap  alert.SessionSnapshot
	round int
}

// Harness drives a fleet of in-process nodes through a FleetTrace with the
// Checker trailing every step.
type Harness struct {
	opts    Options
	fleet   *scenario.FleetTrace
	base    alert.Spec
	prof    *dnn.ProfileTable
	task    dnn.Task
	seed    int64
	nodes   []*node
	cl      *cluster.Cluster
	solo    *alert.Server
	checker *Checker

	// ownerAddr tracks which node's address currently serves each stream —
	// authoritative in the harness because every ownership change passes
	// through it (initial routing, migration, kill recovery).
	ownerAddr map[int]string
	// expectedLive marks streams that must have a live session somewhere
	// (first decide seen, not lost to an uncheckpointed hard kill). It is
	// the one piece of harness state the concurrent stream goroutines
	// write, hence its own lock; everything else mutates only between
	// rounds, single-threaded.
	liveMu       sync.Mutex
	expectedLive map[int]bool
	checkpoints  map[int]checkpointRec

	report Report
}

// New builds the fleet (all nodes live), the cluster router over it, the
// solo reference controller, and the checker. Close releases everything.
func New(opts Options) (*Harness, error) {
	if opts.Fleet == nil {
		return nil, errors.New("chaos: Options.Fleet is required")
	}
	if opts.Fleet.Len() == 0 {
		return nil, errors.New("chaos: fleet trace has no rounds")
	}
	task := opts.Task // zero value is dnn.ImageClassification
	plat, models := alert.CPU1(), alert.ImageCandidates()
	prof, err := dnn.Profile(plat, models)
	if err != nil {
		return nil, err
	}
	base := opts.Base
	if base == (alert.Spec{}) {
		slowest := 0.0
		for _, m := range models {
			if lat := m.RefLatency / plat.Speed(plat.PMax); lat > slowest {
				slowest = lat
			}
		}
		base = alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 1.25 * slowest, AccuracyGoal: 0.92}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = opts.Fleet.Seed
	}

	h := &Harness{
		opts:         opts,
		fleet:        opts.Fleet,
		base:         base,
		prof:         prof,
		task:         task,
		seed:         seed,
		checker:      NewChecker(),
		ownerAddr:    make(map[int]string),
		expectedLive: make(map[int]bool),
		checkpoints:  make(map[int]checkpointRec),
	}
	if opts.Fleet.Unmanaged {
		// Double safety beyond scenario validation: an unmanaged fleet has
		// no orchestrator, so restarts and graceful drains are meaningless.
		for r := 0; r < opts.Fleet.Len(); r++ {
			for _, ev := range opts.Fleet.EventsAt(r) {
				if ev.Kind == scenario.EventRestart || ev.Graceful {
					return nil, fmt.Errorf("chaos: unmanaged trace schedules %s at round %d", ev.Kind, r)
				}
			}
		}
	}
	// Bind every listener first, then serve: self-healing nodes need the
	// full peer address list as membership seeds before the first heartbeat.
	listeners := make([]net.Listener, 0, opts.Fleet.Nodes)
	for i := 0; i < opts.Fleet.Nodes; i++ {
		shards := 1 + i
		if len(opts.Shards) > 0 {
			shards = opts.Shards[i%len(opts.Shards)]
		}
		n := &node{id: fmt.Sprintf("n%d", i), index: i, shards: shards, selfHealing: opts.Fleet.Unmanaged, binary: opts.Binary, adaptive: opts.Adaptive}
		ln, err := n.listen()
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			h.Close()
			return nil, err
		}
		h.nodes = append(h.nodes, n)
		listeners = append(listeners, ln)
	}
	for i, n := range h.nodes {
		var peers []string
		if n.selfHealing {
			for j, m := range h.nodes {
				if j != i {
					peers = append(peers, m.addr)
				}
			}
		}
		if err := n.serve(listeners[i], peers); err != nil {
			for _, l := range listeners[i+1:] {
				l.Close()
			}
			h.Close()
			return nil, err
		}
	}
	addrs := make([]string, len(h.nodes))
	for i, n := range h.nodes {
		addrs[i] = n.addr
	}
	clOpts := cluster.Options{}
	if opts.Fleet.Unmanaged {
		// During an unmanaged failover the new owner sheds requests with
		// 503 + Retry-After until the restore lands; a retry budget lets the
		// driver ride the hold out instead of counting a shed as a loss.
		clOpts.Client = client.Options{MaxRetries: 8, BackoffSeed: seed}
	}
	clOpts.Client.PreferBinary = opts.Binary
	h.cl, err = cluster.New(addrs, clOpts)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.solo, err = alert.NewServer(plat, models, alert.ServerOptions{Shards: 1})
	if err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// Close stops every node and releases the cluster and solo controller.
func (h *Harness) Close() {
	if h.cl != nil {
		h.cl.Close()
	}
	for _, n := range h.nodes {
		n.stop()
	}
	if h.solo != nil {
		h.solo.Close()
	}
}

// Checker exposes the trailing invariant checker (for tests that want to
// feed or inspect it directly).
func (h *Harness) Checker() *Checker { return h.checker }

func (h *Harness) logf(format string, args ...any) {
	if h.opts.Logf != nil {
		h.opts.Logf(format, args...)
	}
}

// nodeByAddr resolves a member address back to the harness's node.
func (h *Harness) nodeByAddr(addr string) *node {
	for _, n := range h.nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// liveClients returns name→client for every live member, for Checker.Poll.
func (h *Harness) liveClients() map[string]*client.Client {
	out := make(map[string]*client.Client)
	for _, n := range h.nodes {
		if !n.alive {
			continue
		}
		if cl, ok := h.cl.Node(n.addr); ok {
			out[n.id] = cl
		}
	}
	return out
}

// ownedBy lists the streams currently owned by a node, sorted (determinism
// of the recovery order matters for replayable runs).
func (h *Harness) ownedBy(addr string) []int {
	var out []int
	for s, a := range h.ownerAddr {
		if a == addr {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// setOwner moves a stream's ownership in both the harness's table and the
// checker's.
func (h *Harness) setOwner(stream int, n *node) {
	h.ownerAddr[stream] = n.addr
	h.checker.SetOwner(stream, n.id)
}

// burst returns how many requests a stream issues in a round: the flash-
// crowd gap compression turned into extra requests (gap factor 0.25 → 4
// requests where 1 would have gone).
func (h *Harness) burst(stream, round int) int {
	b := int(math.Round(1 / h.fleet.GapScale(stream, round)))
	if b < 1 {
		b = 1
	}
	return b
}

// streamState is one driven stream: its private environment simulator,
// workload, and deadline tracker, advanced in lockstep with the fleet.
type streamState struct {
	env     *sim.Env
	in      workload.Stream
	tracker *workload.DeadlineTracker
	cur     alert.Spec
	done    bool
}

// Run drives the whole fleet trace and returns the checker's verdict. The
// loop is round-based lockstep: each round opens with checkpoints, then
// node events, then byzantine fire, then every live stream's requests run
// concurrently (goroutine per stream) to a barrier. Quiescing between
// rounds is what makes kills, restores, and table polls well-defined — and
// within a round the full cluster data path still runs under real
// concurrency.
func (h *Harness) Run(ctx context.Context) (*Report, error) {
	S, rounds := h.fleet.Streams, h.fleet.Len()
	h.report.Rounds = rounds
	h.report.Streams = S

	// Initial ownership is the ring's.
	for s := 0; s < S; s++ {
		n := h.nodeByAddr(h.cl.Route(s))
		if n == nil {
			return nil, fmt.Errorf("chaos: stream %d routes to unknown member", s)
		}
		h.setOwner(s, n)
	}

	states := make([]*streamState, S)
	for s := 0; s < S; s++ {
		total := 0
		for r := 0; r < rounds; r++ {
			total += h.burst(s, r)
		}
		seed := h.seed + int64(s)*7919
		states[s] = &streamState{
			env:     sim.NewEnv(h.prof, h.fleet.Base.Source(), seed+2),
			in:      workload.NewStream(h.task, total, seed+1),
			tracker: workload.NewDeadlineTracker(h.task, h.base.Deadline, 0),
			cur:     h.base,
		}
	}

	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if h.fleet.CheckpointAt(r) {
			h.takeCheckpoints(ctx, r)
			if h.fleet.Unmanaged {
				// Replication rides the checkpoint cadence: every live node
				// ships each stream's canonical snapshot to its ring
				// successor, so a kill later this round (events run after
				// checkpoints) finds a same-round replica waiting.
				for _, n := range h.nodes {
					if n.alive && n.heal != nil {
						n.heal.ReplicateOnce(ctx)
					}
				}
			}
			h.checker.Poll(ctx, h.liveClients(), h.expectedSet())
			h.report.Checkpoints++
		}
		for _, ev := range h.fleet.EventsAt(r) {
			if err := h.applyEvent(ctx, r, ev); err != nil {
				return nil, err
			}
		}
		for _, b := range h.fleet.ByzAt(r) {
			h.fireByz(ctx, b)
		}

		var wg sync.WaitGroup
		for s := 0; s < S; s++ {
			if states[s].done {
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				h.driveRound(ctx, s, r, states[s])
			}(s)
		}
		wg.Wait()
	}

	// Final accounting: the table must be complete and every surviving
	// session must have folded in exactly the decisions the driver issued
	// minus the provable hard-kill losses.
	h.checker.Poll(ctx, h.liveClients(), h.expectedSet())
	for s := 0; s < S; s++ {
		n := h.nodeByAddr(h.ownerAddr[s])
		if n == nil || !n.alive {
			h.checker.Violate("final: stream %d owner is dead or unknown", s)
			continue
		}
		cl, _ := h.cl.Node(n.addr)
		snap, err := cl.ExportStream(ctx, s)
		if errors.Is(err, client.ErrNoSession) {
			h.checker.CheckConservation(s, 0)
			continue
		}
		if err != nil {
			h.checker.Violate("final: export stream %d from %s: %v", s, n.id, err)
			continue
		}
		h.checker.CheckConservation(s, int64(snap.Decisions))
	}

	h.checker.Fill(&h.report)
	return &h.report, nil
}

// markLive flips a stream's must-be-live expectation.
func (h *Harness) markLive(stream int, live bool) {
	h.liveMu.Lock()
	h.expectedLive[stream] = live
	h.liveMu.Unlock()
}

// isLive reads a stream's must-be-live expectation.
func (h *Harness) isLive(stream int) bool {
	h.liveMu.Lock()
	defer h.liveMu.Unlock()
	return h.expectedLive[stream]
}

// expectedSet snapshots which streams must be live somewhere right now.
func (h *Harness) expectedSet() map[int]bool {
	h.liveMu.Lock()
	defer h.liveMu.Unlock()
	out := make(map[int]bool, len(h.expectedLive))
	for s, v := range h.expectedLive {
		if v {
			out[s] = true
		}
	}
	return out
}

// takeCheckpoints snapshots every live stream in place via the owner's
// checkpoint endpoint — the periodic backup hard-kill recovery restores
// from.
func (h *Harness) takeCheckpoints(ctx context.Context, round int) {
	for s := 0; s < h.fleet.Streams; s++ {
		if !h.isLive(s) {
			continue
		}
		n := h.nodeByAddr(h.ownerAddr[s])
		if n == nil || !n.alive {
			h.checker.Violate("checkpoint round %d: stream %d owner dead", round, s)
			continue
		}
		cl, _ := h.cl.Node(n.addr)
		snap, err := cl.CheckpointStream(ctx, s)
		if err != nil {
			h.checker.Violate("checkpoint round %d: stream %d on %s: %v", round, s, n.id, err)
			continue
		}
		h.checkpoints[s] = checkpointRec{snap: snap, round: round}
	}
}

// applyEvent executes one kill or restart.
func (h *Harness) applyEvent(ctx context.Context, round int, ev scenario.NodeEvent) error {
	n := h.nodes[ev.Node]
	switch ev.Kind {
	case scenario.EventKill:
		if !n.alive {
			return fmt.Errorf("chaos: round %d: kill of dead node %s (trace bug)", round, n.id)
		}
		switch {
		case h.fleet.Unmanaged:
			h.logf("round %d: unmanaged kill %s", round, n.id)
			h.unmanagedKill(ctx, round, n)
		case ev.Graceful:
			h.logf("round %d: graceful kill %s", round, n.id)
			h.gracefulKill(ctx, n)
		default:
			h.logf("round %d: hard kill %s", round, n.id)
			h.hardKill(ctx, round, n)
		}
		h.report.Kills++
		h.checker.Poll(ctx, h.liveClients(), h.expectedSet())
	case scenario.EventRestart:
		if n.alive {
			return fmt.Errorf("chaos: round %d: restart of live node %s (trace bug)", round, n.id)
		}
		h.logf("round %d: restart %s", round, n.id)
		if err := h.restart(ctx, n); err != nil {
			return err
		}
		h.report.Restarts++
		h.checker.Poll(ctx, h.liveClients(), h.expectedSet())
	default:
		return fmt.Errorf("chaos: round %d: unknown event kind %q", round, ev.Kind)
	}
	return nil
}

// survivorsAfter lists the live nodes excluding the victim, in index order.
func (h *Harness) survivorsAfter(victim *node) []*node {
	var out []*node
	for _, n := range h.nodes {
		if n.alive && n != victim {
			out = append(out, n)
		}
	}
	return out
}

// gracefulKill migrates every session off the victim (announced reroutes,
// spread round-robin over the survivors), then removes the member and stops
// the process. Nothing is lost and determinism is preserved.
func (h *Harness) gracefulKill(ctx context.Context, victim *node) {
	survivors := h.survivorsAfter(victim)
	for k, s := range h.ownedBy(victim.addr) {
		target := survivors[k%len(survivors)]
		h.setOwner(s, target)
		if err := h.cl.Migrate(ctx, s, victim.addr, target.addr); err != nil {
			h.checker.Violate("graceful kill %s: migrate stream %d to %s: %v", victim.id, s, target.id, err)
			continue
		}
		h.report.Migrations++
	}
	if err := h.cl.RemoveMember(victim.addr); err != nil {
		h.checker.Violate("graceful kill %s: remove member: %v", victim.id, err)
	}
	victim.stop()
}

// hardKill stops the victim where it stands — its stream table dies with
// it — then restores each of its streams from the last checkpoint onto the
// stream's new hash-home. Streams whose checkpoint is stale (or missing)
// lose the decisions issued since it; the loss is announced to the checker
// as expected divergence, never hidden.
func (h *Harness) hardKill(ctx context.Context, round int, victim *node) {
	orphans := h.ownedBy(victim.addr)
	victim.stop()
	if err := h.cl.RemoveMember(victim.addr); err != nil {
		h.checker.Violate("hard kill %s: remove member: %v", victim.id, err)
		return
	}
	for _, s := range orphans {
		target := h.nodeByAddr(h.cl.Route(s)) // post-removal hash-home
		if target == nil || !target.alive {
			h.checker.Violate("hard kill %s: stream %d has no live home", victim.id, s)
			continue
		}
		h.setOwner(s, target)
		ck, has := h.checkpoints[s]
		if !has {
			// Nothing to restore: the stream restarts from scratch on its
			// next request, losing everything it had observed.
			if issued := h.checker.Issued(s); issued > 0 {
				h.checker.ExpectDivergence(s, issued,
					fmt.Sprintf("hard kill of %s at round %d with no checkpoint (%d decisions lost)", victim.id, round, issued))
			}
			h.markLive(s, false)
			continue
		}
		lost := h.checker.Issued(s) - int64(ck.snap.Decisions)
		if lost > 0 {
			h.checker.ExpectDivergence(s, lost,
				fmt.Sprintf("hard kill of %s at round %d restored checkpoint from round %d (%d decisions lost)",
					victim.id, round, ck.round, lost))
		}
		tcl, _ := h.cl.Node(target.addr)
		if err := tcl.ImportStream(ctx, s, ck.snap); err != nil {
			h.checker.Violate("hard kill %s: restore stream %d onto %s: %v", victim.id, s, target.id, err)
			continue
		}
		if err := h.cl.Pin(s, target.addr); err != nil {
			h.checker.Violate("hard kill %s: pin stream %d to %s: %v", victim.id, s, target.id, err)
		}
	}
}

// unmanagedKill stops the victim and then only watches: the surviving
// agents must declare it dead on their own, the router must eject it via
// its membership subscription, and the ring successor must restore every
// orphaned stream from its replicated snapshot — no RemoveMember, no
// harness-side restore. The harness's role shrinks to bookkeeping: wait
// for convergence (bounded by convergeGrace), account provable losses as
// expected divergence, and flag anything else as a violation.
func (h *Harness) unmanagedKill(ctx context.Context, round int, victim *node) {
	orphans := h.ownedBy(victim.addr)
	victim.stop()
	start := time.Now()
	deadline := start.Add(convergeGrace)

	// 1. Every survivor's failure detector converges on the death.
	for _, n := range h.survivorsAfter(victim) {
		for {
			if e, ok := n.agent.View().Entry(victim.id); ok && e.State == membership.StateDead {
				break
			}
			if time.Now().After(deadline) {
				h.checker.Violate("unmanaged kill %s: %s never declared it dead within %s", victim.id, n.id, convergeGrace)
				return
			}
			if sleepCtx(ctx, 5*time.Millisecond) != nil {
				return
			}
		}
	}
	h.logf("round %d: survivors declared %s dead after %s (lease timeout %s)",
		round, victim.id, time.Since(start).Round(time.Millisecond), unmanagedDead)

	// 2. The router ejects the victim through its membership subscription.
	for {
		if err := h.cl.SyncMembership(ctx); err == nil && !containsAddr(h.cl.Members(), victim.addr) {
			break
		}
		if time.Now().After(deadline) {
			h.checker.Violate("unmanaged kill %s: router never ejected it within %s", victim.id, convergeGrace)
			return
		}
		if sleepCtx(ctx, 10*time.Millisecond) != nil {
			return
		}
	}

	// 3. Each orphan resurfaces on a survivor — or its loss is accounted.
	for _, s := range orphans {
		if !h.isLive(s) {
			// Never served a request: nothing to restore, the ring just
			// routes its first decide somewhere new.
			if n := h.nodeByAddr(h.cl.Route(s)); n != nil {
				h.setOwner(s, n)
			}
			continue
		}
		ck, has := h.checkpoints[s]
		if !has {
			// Killed before the first replication round: no replica ever
			// shipped, so the stream restarts from scratch.
			if issued := h.checker.Issued(s); issued > 0 {
				h.checker.ExpectDivergence(s, issued,
					fmt.Sprintf("unmanaged kill of %s at round %d before any replication (%d decisions lost)", victim.id, round, issued))
			}
			h.markLive(s, false)
			if n := h.nodeByAddr(h.cl.Route(s)); n != nil {
				h.setOwner(s, n)
			}
			continue
		}
		holder := h.awaitRestore(ctx, s, deadline)
		if holder == nil {
			h.checker.Violate("unmanaged kill %s: stream %d never restored from its replica", victim.id, s)
			continue
		}
		h.setOwner(s, holder)
		// The successor==new-owner theorem, end to end: the node that held
		// the replica must be exactly where the rebuilt ring routes.
		if route := h.cl.Route(s); route != holder.addr {
			h.checker.Violate("unmanaged kill %s: stream %d restored on %s but routes to %s", victim.id, s, holder.addr, route)
		}
		if lost := h.checker.Issued(s) - int64(ck.snap.Decisions); lost > 0 {
			h.checker.ExpectDivergence(s, lost,
				fmt.Sprintf("unmanaged kill of %s at round %d restored the round-%d replica (%d decisions lost)",
					victim.id, round, ck.round, lost))
		}
	}
	h.report.Failovers++
	h.logf("round %d: cluster absorbed kill of %s in %s", round, victim.id, time.Since(start).Round(time.Millisecond))
}

// awaitRestore polls the survivors' stream listings until one of them holds
// the stream (restores announce themselves by simply appearing in the
// table), or the deadline passes.
func (h *Harness) awaitRestore(ctx context.Context, stream int, deadline time.Time) *node {
	for {
		for _, n := range h.nodes {
			if !n.alive {
				continue
			}
			cl, ok := h.cl.Node(n.addr)
			if !ok {
				continue
			}
			ids, err := cl.Streams(ctx)
			if err != nil {
				continue
			}
			for _, id := range ids {
				if id == stream {
					return n
				}
			}
		}
		if time.Now().After(deadline) {
			return nil
		}
		if sleepCtx(ctx, 10*time.Millisecond) != nil {
			return nil
		}
	}
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func containsAddr(addrs []string, addr string) bool {
	for _, a := range addrs {
		if a == addr {
			return true
		}
	}
	return false
}

// restart brings a node back on its remembered address with an empty table,
// re-adds it to the member set, and rebalances: any stream whose route now
// disagrees with where its session actually lives (the ring remapped its
// hash-home onto the returned node) is migrated there with an announced
// reroute — without this, the stream's next request would fork a fresh
// session on the new home while the real one kept living elsewhere.
func (h *Harness) restart(ctx context.Context, n *node) error {
	if err := n.start(); err != nil {
		return err
	}
	if err := h.cl.AddMember(n.addr); err != nil {
		return fmt.Errorf("chaos: re-add member %s: %w", n.id, err)
	}
	for s := 0; s < h.fleet.Streams; s++ {
		route := h.cl.Route(s)
		owner := h.ownerAddr[s]
		if route == owner {
			continue
		}
		target := h.nodeByAddr(route)
		if target == nil || !target.alive {
			h.checker.Violate("restart %s: stream %d routes to dead member", n.id, s)
			continue
		}
		h.setOwner(s, target)
		if err := h.cl.Migrate(ctx, s, owner, route); err != nil {
			h.checker.Violate("restart %s: migrate stream %d home: %v", n.id, s, err)
			continue
		}
		h.report.Migrations++
	}
	return nil
}

// token renders a decision in the byte-comparable form the determinism
// check (and cmd/alertload's -decisions output) uses.
func token(d alert.Decision) string {
	return fmt.Sprintf("%d,%d,%.17g,%.17g", d.Model, d.Cap, d.PlannedStop, d.Overhead)
}

// driveRound issues one round of a stream's traffic: burst-many
// decide/observe pairs against the cluster, mirrored on the solo reference.
// The environment steps on the cluster's decision — the system under test —
// so after an expected divergence the run keeps exercising the cluster
// honestly while the solo comparison for that stream is retired.
func (h *Harness) driveRound(ctx context.Context, s, r int, st *streamState) {
	for b := h.burst(s, r); b > 0; b-- {
		input, ok := st.in.Next()
		if !ok {
			st.done = true
			return
		}
		if next := h.fleet.Base.SpecFor(input.ID, h.base); next != st.cur {
			st.cur = next
			st.tracker.SetPerInput(st.cur.Deadline)
		}
		goal := st.tracker.GoalFor(input)
		dspec := st.cur
		dspec.Deadline = goal

		want, _ := h.solo.Decide(s, dspec)
		got, _, servedBy, err := h.cl.DecideServed(ctx, s, dspec)
		if err != nil {
			// An error on a live route is a lost accepted request — the
			// cluster invariant this harness exists to check.
			h.checker.Violate("decide: stream %d round %d: %v", s, r, err)
			return
		}
		h.markLive(s, true)
		h.checker.RecordDecide(s, r, servedBy, token(got), token(want))

		out := st.env.Step(sim.Decision{
			Model: got.Model, Cap: got.Cap,
			PlannedStop: got.PlannedStop, Overhead: got.Overhead,
		}, input, goal, st.cur.Deadline)
		st.tracker.Observe(input, out.Latency)
		fb := alert.Feedback{
			Decision:       got,
			Latency:        out.Latency,
			CompletedStage: out.Stage,
			IdlePowerW:     out.IdlePower,
		}
		h.solo.Observe(s, fb)
		if err := h.cl.Observe(ctx, s, fb); err != nil {
			h.checker.Violate("observe: stream %d round %d: %v", s, r, err)
			return
		}
		h.checker.RecordObserve()
	}
}

// fireByz sends one byzantine request (retargeting the next live node if
// the scheduled one is down) and records whether the cluster rejected it
// cleanly: a 4xx is correct, anything else — a 5xx, a transport error, a
// success — is a violation.
func (h *Harness) fireByz(ctx context.Context, b scenario.ByzRequest) {
	var target *node
	for k := 0; k < len(h.nodes); k++ {
		n := h.nodes[(b.Node+k)%len(h.nodes)]
		if n.alive {
			target = n
			break
		}
	}
	if target == nil {
		return // validated schedules always keep one node live
	}
	h.report.ByzSent++
	status, err := sendByz(ctx, target.addr, b, h.fleet.Streams)
	if err != nil {
		h.checker.Violate("byzantine %s at %s: transport error: %v", b.Kind, target.id, err)
		return
	}
	if status < 400 || status >= 500 {
		h.checker.Violate("byzantine %s at %s: status %d, want 4xx", b.Kind, target.id, status)
		return
	}
	h.report.ByzRejected++
}

// trickleReader yields one byte per Read — a slow client dribbling a body.
type trickleReader struct{ buf []byte }

func (t *trickleReader) Read(p []byte) (int, error) {
	if len(t.buf) == 0 {
		return 0, io.EOF
	}
	p[0] = t.buf[0]
	t.buf = t.buf[1:]
	return 1, nil
}

// byzHTTP is the raw client byzantine requests go through — deliberately
// not the typed client package, which refuses to build malformed bodies.
var byzHTTP = &http.Client{Timeout: 30 * time.Second}

// sendByz fires one hostile request at a node and returns the status code.
// Every payload is side-effect-free by construction: it must be rejected
// before it can touch the stream table, and the checker's table polls
// verify that it was.
func sendByz(ctx context.Context, addr string, b scenario.ByzRequest, streams int) (int, error) {
	rng := newByzRng(b.Seed)
	var (
		method, path string
		body         io.Reader
	)
	switch b.Kind {
	case scenario.ByzGarbageJSON:
		method, path = http.MethodPost, "/v1/decide"
		raw := make([]byte, 16+rng.Intn(64))
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		body = bytesReader(append([]byte(`{"stream":`), raw...))
	case scenario.ByzTruncatedSnapshot:
		method, path = http.MethodPut, fmt.Sprintf("/v1/streams/%d", rng.Intn(streams))
		// Valid base64 of an invalid (truncated / version-garbled) snapshot.
		raw := make([]byte, 1+rng.Intn(32))
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		body = bytesReader([]byte(fmt.Sprintf(`{"snapshot_b64":%q}`, b64(raw))))
	case scenario.ByzBadObjective:
		method, path = http.MethodPost, "/v1/decide"
		body = bytesReader([]byte(fmt.Sprintf(
			`{"stream":%d,"spec":{"objective":"frobnicate","deadline":0.1,"accuracy_goal":0.9}}`,
			rng.Intn(streams))))
	case scenario.ByzOversize:
		method, path = http.MethodPost, "/v1/decide"
		body = &junkReader{n: oversizeBody, c: 'x'}
	case scenario.ByzSlow:
		// A slow client dribbling an (invalid) body byte by byte: holds a
		// connection without ever becoming an accepted request.
		method, path = http.MethodPost, "/v1/decide"
		body = &trickleReader{buf: []byte(fmt.Sprintf(
			`{"stream":%d,"spec":{"objective":"frobnicate","deadline":0.1,"accuracy_goal":0.9}}`,
			rng.Intn(streams)))}
	default:
		return 0, fmt.Errorf("unknown byzantine kind %q", b.Kind)
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := byzHTTP.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}
