// Package selfheal makes a node crash a cluster-internal event: detection
// comes from internal/membership, recovery from replicated checkpoints,
// and no operator or load generator is in the loop.
//
// Each node runs one Manager, which does three jobs:
//
//  1. Replicate. On a cadence (ReplicateEvery, or explicit ReplicateOnce
//     calls), snapshot every locally served stream — the checkpoint tap,
//     which does NOT remove the session — and PUT the canonical binary
//     blob to the stream's ring successor: the member that would own the
//     stream if this node vanished. Because internal/hashring is shared
//     with the client router, "where the replica sits" and "where clients
//     will route after the death" are the same node by construction.
//
//  2. Fail over. When the membership agent declares a member dead, every
//     surviving Manager scans its held replicas for streams owned by the
//     dead node, keeps the ones whose post-failure hash-home is itself,
//     and restores them — unless the stream is already live somewhere
//     (e.g. it was migrated off the dead node before the crash). During
//     the restore the stream is held: the front end sheds its requests
//     with 503 + Retry-After, so the failover window is visible and
//     bounded but loses nothing that was accepted.
//
//  3. Arbitrate. Every import announces an ownership claim
//     (POST /v1/claims) carrying the session's decision count and how it
//     was acquired. Claims are totally ordered — more decisions win;
//     at a tie a migration import outranks a failover restore (a replica
//     is never fresher than an export of the same session); equal kinds
//     fall back to node id — so however a migration races a failover,
//     exactly one copy of the stream survives and every other holder
//     evicts. This is what keeps the chaos checker's single-ownership
//     invariant true without any lock spanning the cluster.
package selfheal

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/hashring"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/netserve"
)

// Config wires a Manager to its node.
type Config struct {
	// NodeID is this node's cluster identity (must match the membership
	// agent's ID). Required.
	NodeID string
	// Addr is this node's advertised address — the string the hash ring
	// hashes. Required.
	Addr string
	// Agent is the node's membership agent; the Manager subscribes to its
	// view changes for failover triggers and reads its member set for
	// ring builds. Required.
	Agent *membership.Agent
	// Server is the local stream table. Required.
	Server *alert.Server
	// ReplicateEvery is the checkpoint replication cadence for Run. 0
	// disables the internal ticker — replication then happens only via
	// explicit ReplicateOnce calls (the chaos harness clocks it that way
	// to keep drills deterministic).
	ReplicateEvery time.Duration
	// Logf, if set, receives one line per replication pass summary,
	// restore, and claim resolution.
	Logf func(format string, args ...any)
}

// replica is one held checkpoint of a peer-owned stream.
type replica struct {
	owner     string
	decisions int64
	snap      alert.SessionSnapshot
}

// Manager implements netserve.Recovery for one node. All methods are safe
// for concurrent use.
type Manager struct {
	cfg  Config
	http *http.Client

	// ctx is cancelled by Close; failover passes and Run's replication run
	// under it, and wg counts them. wg.Add happens under mu while !closed.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	replicas  map[int]replica // stream -> freshest replicated checkpoint
	restoring map[int]bool    // streams mid-restore (front end sheds these)
	// holds counts restoring's entries. It rises before an entry is added
	// and falls after one is removed, so a zero read means no stream was
	// mid-restore at that instant: Restoring, which the front end calls for
	// every op it serves, takes mu only while a restore is in flight.
	holds    atomic.Int64
	acquired map[int]string  // stream -> claim kind of the last local import/restore
	lastView membership.View // previous view, for dead-transition detection
}

var _ netserve.Recovery = (*Manager)(nil)

// New builds a Manager. It is passive until Run is started and/or it is
// installed as the front end's Recovery.
func New(cfg Config) (*Manager, error) {
	if cfg.NodeID == "" || cfg.Addr == "" {
		return nil, fmt.Errorf("selfheal: NodeID and Addr required")
	}
	if cfg.Agent == nil || cfg.Server == nil {
		return nil, fmt.Errorf("selfheal: Agent and Server required")
	}
	m := &Manager{
		cfg:       cfg,
		http:      &http.Client{Timeout: 2 * time.Second},
		replicas:  make(map[int]replica),
		restoring: make(map[int]bool),
		acquired:  make(map[int]string),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.lastView = cfg.Agent.View()
	return m, nil
}

// Close stops Run and every failover pass, waits for them to return, and
// starts no more. Call it before closing the node's alert.Server, which
// they use. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// start counts one more goroutine for Close to wait for, unless the
// Manager is closed.
func (m *Manager) start() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.wg.Add(1)
	return true
}

// OnViewChange is the membership subscription hook: wire it to the
// agent's OnChange. It diffs against the previously seen view and spawns
// a failover pass for every member newly declared dead. The pass runs in
// its own goroutine — the agent calls OnChange from its heartbeat loop,
// which must not block on cluster-wide restore traffic — until it is done
// or Close cancels it.
func (m *Manager) OnViewChange(v membership.View) {
	m.mu.Lock()
	prev := m.lastView
	m.lastView = v.Clone()
	m.mu.Unlock()
	for _, e := range v.Entries {
		if e.State != membership.StateDead {
			continue
		}
		if pe, ok := prev.Entry(e.ID); ok && pe.State == membership.StateDead {
			continue // already knew
		}
		if !m.start() {
			return
		}
		dead := e
		m.logf("selfheal %s: %s (%s) declared dead, starting failover", m.cfg.NodeID, dead.ID, dead.Addr)
		go func() {
			defer m.wg.Done()
			m.failover(m.ctx, dead)
		}()
	}
}

// Run replicates on the configured cadence until ctx is cancelled or the
// Manager is closed. With ReplicateEvery zero it just blocks until then
// (failovers are driven entirely by OnViewChange; replication by explicit
// ReplicateOnce).
func (m *Manager) Run(ctx context.Context) {
	if !m.start() {
		return
	}
	defer m.wg.Done()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(m.ctx, cancel)()
	if m.cfg.ReplicateEvery <= 0 {
		<-ctx.Done()
		return
	}
	ticker := time.NewTicker(m.cfg.ReplicateEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.ReplicateOnce(ctx)
		}
	}
}

// ReplicateOnce checkpoints every locally served stream and ships each
// checkpoint to its ring successor (the post-failure hash-home of the
// stream with this node removed). Returns how many replicas were shipped.
// Safe to call concurrently with serving: the checkpoint tap snapshots
// without removing.
func (m *Manager) ReplicateOnce(ctx context.Context) int {
	members := m.cfg.Agent.Members()
	shipped := 0
	for _, stream := range m.cfg.Server.StreamIDs() {
		target := hashring.Successor(members, m.cfg.Addr, stream)
		if target == "" || target == m.cfg.Addr {
			continue // nowhere to replicate (single-member cluster)
		}
		snap, ok := m.cfg.Server.SnapshotStream(stream)
		if !ok {
			continue // evicted or exported since StreamIDs
		}
		if err := m.putReplica(ctx, target, stream, snap); err != nil {
			m.logf("selfheal %s: replicate stream %d -> %s: %v", m.cfg.NodeID, stream, target, err)
			continue
		}
		shipped++
	}
	if shipped > 0 {
		m.logf("selfheal %s: replicated %d stream checkpoint(s)", m.cfg.NodeID, shipped)
	}
	return shipped
}

// putReplica ships one checkpoint.
func (m *Manager) putReplica(ctx context.Context, target string, stream int, snap alert.SessionSnapshot) error {
	blob, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	req := netserve.ReplicaPutRequest{
		Owner:       m.cfg.NodeID,
		SnapshotB64: base64.StdEncoding.EncodeToString(blob),
	}
	var resp netserve.ReplicaPutResponse
	return m.doJSON(ctx, http.MethodPut, target, fmt.Sprintf("/v1/replicas/%d", stream), req, &resp)
}

// failover restores the dead member's orphaned streams from the replicas
// this node holds. Only streams whose post-failure hash-home is this node
// are restored (other survivors hold the replicas for theirs), and only
// if no live session for the stream exists anywhere — a stream migrated
// off the dead node before the crash is not an orphan.
func (m *Manager) failover(ctx context.Context, dead membership.Entry) {
	m.mu.Lock()
	orphans := make(map[int]replica)
	for stream, r := range m.replicas {
		if r.owner == dead.ID {
			orphans[stream] = r
		}
	}
	m.mu.Unlock()
	if len(orphans) == 0 {
		return
	}

	members := m.cfg.Agent.Members()
	ring := hashring.Build(members)
	// One probe pass over the survivors' stream tables, shared by every
	// orphan this node is responsible for.
	live := m.liveStreams(ctx, members)

	for stream, r := range orphans {
		if ctx.Err() != nil {
			return // closing: the node's table goes with it
		}
		if ring.Owner(stream) != m.cfg.Addr {
			continue // another survivor's responsibility
		}
		m.restoreOrphan(ctx, stream, r, live, members)
		// Either way the replica's owner is gone; drop our copy so a
		// later death of the restored home replicates fresh state, not
		// this stale blob.
		m.mu.Lock()
		delete(m.replicas, stream)
		m.mu.Unlock()
	}
}

// restoreOrphan restores one stream from a replica, holding its traffic
// while the import is in flight, then claims ownership.
func (m *Manager) restoreOrphan(ctx context.Context, stream int, r replica, live map[int]string, members []string) {
	if at, isLive := live[stream]; isLive {
		m.logf("selfheal %s: stream %d already live at %s, skipping restore", m.cfg.NodeID, stream, at)
		return
	}
	defer m.hold(stream)()

	if err := m.cfg.Server.ImportStream(stream, r.snap); err != nil {
		// A live local session: routed traffic beat us here (the fresh
		// session formed after the ring moved). Nothing to restore over.
		m.logf("selfheal %s: stream %d restore refused (%v), keeping live session", m.cfg.NodeID, stream, err)
		return
	}
	m.mu.Lock()
	m.acquired[stream] = netserve.ClaimKindRestore
	m.mu.Unlock()

	if sup := m.announce(ctx, stream, r.decisions, netserve.ClaimKindRestore, members); sup {
		// Someone holds a fresher session (a migration completed after
		// the checkpoint we restored from). Our copy is stale: evict it.
		m.cfg.Server.EvictStream(stream)
		m.mu.Lock()
		delete(m.acquired, stream)
		m.mu.Unlock()
		m.logf("selfheal %s: stream %d restore superseded by a fresher session, evicted", m.cfg.NodeID, stream)
		return
	}
	m.logf("selfheal %s: restored stream %d from %s's checkpoint (%d decisions)",
		m.cfg.NodeID, stream, r.owner, r.decisions)
}

// liveStreams probes every other member's stream table and returns
// stream -> address for every live session visible in the cluster.
// Unreachable members are skipped: the dead node itself will not answer,
// and a probe failure just means we lean on claims to arbitrate.
func (m *Manager) liveStreams(ctx context.Context, members []string) map[int]string {
	out := make(map[int]string)
	for _, addr := range members {
		if addr == m.cfg.Addr {
			for _, id := range m.cfg.Server.StreamIDs() {
				out[id] = addr
			}
			continue
		}
		var resp netserve.StreamsResponse
		if err := m.doJSON(ctx, http.MethodGet, addr, "/v1/streams", nil, &resp); err != nil {
			continue
		}
		for _, id := range resp.IDs {
			out[id] = addr
		}
	}
	return out
}

// announce broadcasts an ownership claim to every other member and
// reports whether any peer superseded it.
func (m *Manager) announce(ctx context.Context, stream int, decisions int64, kind string, members []string) bool {
	req := netserve.ClaimRequest{
		Stream:    stream,
		NodeID:    m.cfg.NodeID,
		Decisions: decisions,
		Kind:      kind,
	}
	superseded := false
	for _, addr := range members {
		if addr == m.cfg.Addr {
			continue
		}
		var resp netserve.ClaimResponse
		if err := m.doJSON(ctx, http.MethodPost, addr, "/v1/claims", req, &resp); err != nil {
			continue // unreachable peers cannot hold the stream for long; leases will expire them
		}
		if resp.Superseded {
			m.logf("selfheal %s: claim for stream %d superseded by %s (local %d vs theirs %d)",
				m.cfg.NodeID, stream, addr, decisions, resp.Decisions)
			superseded = true
		}
	}
	return superseded
}

// --- netserve.Recovery implementation ---

// hold marks a stream mid-restore until the returned release runs.
func (m *Manager) hold(stream int) (release func()) {
	m.holds.Add(1)
	m.mu.Lock()
	m.restoring[stream] = true
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		delete(m.restoring, stream)
		m.mu.Unlock()
		m.holds.Add(-1)
	}
}

// Restoring reports whether a stream is mid-restore (see Config docs).
func (m *Manager) Restoring(stream int) bool {
	if m.holds.Load() == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restoring[stream]
}

// StoreReplica keeps the freshest checkpoint per stream. A staler blob
// (fewer decisions) never overwrites a fresher one — replication is
// idempotent and unordered on the wire.
func (m *Manager) StoreReplica(stream int, owner string, decisions int64, snap alert.SessionSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, ok := m.replicas[stream]; ok && cur.owner == owner && cur.decisions > decisions {
		return
	}
	m.replicas[stream] = replica{owner: owner, decisions: decisions, snap: snap}
}

// HandleClaim arbitrates a peer's ownership claim against any local
// session for the stream, under the total order documented on the claim
// kinds: decisions, then import-over-restore, then node id. Exactly one
// side of any conflict keeps its copy.
func (m *Manager) HandleClaim(stream int, claimant, kind string, decisions int64) (bool, int64) {
	snap, ok := m.cfg.Server.SnapshotStream(stream)
	if !ok {
		return false, -1
	}
	local := snap.Decisions
	m.mu.Lock()
	localKind, hasKind := m.acquired[stream]
	m.mu.Unlock()
	if !hasKind {
		// A session formed by routed traffic (or predating self-healing)
		// ranks as an import: it is the client-driven path, and a restore
		// guess must not beat it on a tie.
		localKind = netserve.ClaimKindImport
	}
	if holderWins(local, localKind, m.cfg.NodeID, decisions, kind, claimant) {
		m.logf("selfheal %s: kept stream %d over %s's %s claim (%d vs %d decisions)",
			m.cfg.NodeID, stream, claimant, kind, local, decisions)
		return true, local
	}
	m.cfg.Server.EvictStream(stream)
	m.mu.Lock()
	delete(m.acquired, stream)
	m.mu.Unlock()
	m.logf("selfheal %s: evicted stream %d for %s's %s claim (%d vs %d decisions)",
		m.cfg.NodeID, stream, claimant, kind, local, decisions)
	return false, local
}

// AnnounceImport broadcasts a claim for a session imported over the wire.
func (m *Manager) AnnounceImport(stream int, decisions int64) bool {
	m.mu.Lock()
	m.acquired[stream] = netserve.ClaimKindImport
	m.mu.Unlock()
	sup := m.announce(context.Background(), stream, decisions, netserve.ClaimKindImport, m.cfg.Agent.Members())
	if sup {
		m.cfg.Server.EvictStream(stream)
		m.mu.Lock()
		delete(m.acquired, stream)
		m.mu.Unlock()
	}
	return sup
}

// holderWins decides a claim conflict from the holder's side. The order
// is total — antisymmetric by construction — so the two sides of any
// concurrent pair of claims agree on the single winner:
//
//	more decisions > fewer decisions
//	import > restore            (at equal decisions)
//	higher node id > lower      (at equal decisions and kind)
func holderWins(localDec int64, localKind, localID string, claimDec int64, claimKind, claimID string) bool {
	if localDec != claimDec {
		return localDec > claimDec
	}
	if localKind != claimKind {
		return localKind == netserve.ClaimKindImport
	}
	return localID > claimID
}

// doJSON performs one control-plane request against a member address.
func (m *Manager) doJSON(ctx context.Context, method, addr, path string, body, into any) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + path
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := m.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfheal: %s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if into != nil {
		return json.Unmarshal(data, into)
	}
	return nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
