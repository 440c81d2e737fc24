// Package cluster turns a set of alertserve nodes into one logical
// controller: streams are routed to nodes by consistent hashing, and live
// sessions migrate between nodes with the drain → snapshot → ship → resume
// protocol built on GET /v1/streams/{id}/snapshot and PUT /v1/streams/{id}.
//
// Routing is coordination-free: every client that knows the same member
// set hashes every stream to the same node, so no directory service is
// needed. The one piece of soft state a Cluster carries is its pin table —
// streams explicitly Migrated off their hash-home stay pinned to their new
// node until the pin is dropped — and that state lives in the client, not
// the cluster, because the session itself lives wherever it was last
// imported. Decisions are bit-exact across the move: the snapshot wire
// format is canonical binary (see core.SessionSnapshot), so a stream served
// by three nodes in sequence makes byte-identical decisions to one served
// by a single process.
//
// Membership is static at construction and follows the cluster at runtime:
// each SyncMembership call (sync.go) reads the members' merged
// GET /v1/membership views, so a cluster bootstrapped from one seed address
// discovers the rest and routes around the dead.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/hashring"
)

// Cluster routes streams across alertserve nodes. All methods are safe for
// concurrent use.
type Cluster struct {
	opts client.Options

	mu        sync.RWMutex
	nodes     map[string]*client.Client // every current member, by address
	ring      hashring.Ring
	pins      map[int]string // stream -> address, overriding the ring
	migrating map[int]bool   // streams with a Migrate in flight
}

// New builds a cluster over the given member addresses (host:port or full
// URLs, as accepted by client.New); opts is applied to every per-node
// client. The member list may be refreshed later with SetMembers or
// SyncMembership; it must be non-empty here.
func New(addrs []string, opts client.Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no members")
	}
	c := &Cluster{
		opts:      opts,
		nodes:     make(map[string]*client.Client, len(addrs)),
		pins:      make(map[int]string),
		migrating: make(map[int]bool),
	}
	if err := c.setMembers(addrs); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close releases every per-node client.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.nodes {
		cl.Close()
	}
	c.nodes = map[string]*client.Client{}
	c.ring = hashring.Ring{}
}

// Members returns the current member addresses, sorted.
func (c *Cluster) Members() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.nodes))
	for addr := range c.nodes {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// SetMembers replaces the member list, rebuilding the ring. Clients for
// departed members are closed; pins onto departed members are dropped (the
// stream falls back to its hash-home, where a fresh session will form —
// migrate before removing a node to avoid that). Existing members keep
// their connections.
func (c *Cluster) SetMembers(addrs []string) error {
	if len(addrs) == 0 {
		return errors.New("cluster: no members")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setMembers(addrs)
}

// setMembers is SetMembers without locking; callers hold c.mu (or, from
// New, exclusive ownership).
func (c *Cluster) setMembers(addrs []string) error {
	next := make(map[string]*client.Client, len(addrs))
	for _, addr := range addrs {
		if _, dup := next[addr]; dup {
			continue
		}
		if cl, ok := c.nodes[addr]; ok {
			next[addr] = cl
			continue
		}
		cl, err := client.New(addr, c.opts)
		if err != nil {
			for a, ncl := range next {
				if _, kept := c.nodes[a]; !kept {
					ncl.Close()
				}
			}
			return fmt.Errorf("cluster: member %s: %w", addr, err)
		}
		next[addr] = cl
	}
	for addr, cl := range c.nodes {
		if _, kept := next[addr]; !kept {
			cl.Close()
		}
	}
	members := make([]string, 0, len(next))
	for addr := range next {
		members = append(members, addr)
	}
	c.nodes = next
	c.ring = hashring.Build(members)
	for stream, addr := range c.pins {
		if _, ok := next[addr]; !ok {
			delete(c.pins, stream)
		}
	}
	return nil
}

// Route returns the address currently serving a stream: its pin if
// migrated, otherwise its consistent-hash home.
func (c *Cluster) Route(stream int) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if addr, ok := c.pins[stream]; ok {
		return addr
	}
	return c.ring.Owner(stream)
}

// Node returns the underlying client for a member address, for operations
// the Cluster does not route itself (stats, drain coordination).
func (c *Cluster) Node(addr string) (*client.Client, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.nodes[addr]
	return cl, ok
}

// clientFor resolves a stream to its serving node's client.
func (c *Cluster) clientFor(stream int) (*client.Client, string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	addr, ok := c.pins[stream]
	if !ok {
		addr = c.ring.Owner(stream)
	}
	cl, live := c.nodes[addr]
	if !live {
		return nil, addr, fmt.Errorf("cluster: stream %d routes to unknown member %q", stream, addr)
	}
	return cl, addr, nil
}

// Decide routes the request to the stream's serving node.
func (c *Cluster) Decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, error) {
	cl, _, err := c.clientFor(stream)
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, err
	}
	return cl.Decide(ctx, stream, spec)
}

// DecideServed is Decide plus the identity of the node that actually served
// the decision as the server reported it (its -node-id, which need not
// equal the routed address). The chaos harness's single-ownership checker
// feeds on it: every decision is attributed to a member, so a stream served
// by two nodes at once cannot hide.
func (c *Cluster) DecideServed(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error) {
	cl, _, err := c.clientFor(stream)
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", err
	}
	return cl.DecideServed(ctx, stream, spec)
}

// Observe routes the feedback to the stream's serving node.
func (c *Cluster) Observe(ctx context.Context, stream int, fb alert.Feedback) error {
	cl, _, err := c.clientFor(stream)
	if err != nil {
		return err
	}
	return cl.Observe(ctx, stream, fb)
}

// ErrMigrationInFlight reports that another Migrate for the same stream is
// still running on this Cluster. Concurrent migrations of one stream are
// refused rather than serialized: the loser's from/to plan was made against
// a routing state the winner is in the middle of changing, so running it
// afterwards would be wrong anyway. The caller re-plans (or simply skips —
// the stream is being handled).
var ErrMigrationInFlight = errors.New("cluster: migration already in flight for stream")

// Migrate moves a stream's live session from one member to another:
// export (which drains the stream's queued work and atomically removes the
// session), ship the canonical snapshot, import, and pin the stream so
// subsequent routed traffic resumes on the target. A stream with no
// session on the source is nothing to ship: Migrate pins and returns nil,
// so migration plans are idempotent.
//
// At most one Migrate per stream runs at a time on a Cluster: a concurrent
// second call gets ErrMigrationInFlight (wrapped) immediately. Without the
// guard two racing migrations could fork the stream — each exporting,
// importing to different targets, and pinning over each other — which is
// exactly the double-serve state the cluster exists to prevent.
//
// If the import is refused the session is re-imported into the source
// (the export already removed it there); only if that recovery also fails
// is the session lost, and the returned error says so.
func (c *Cluster) Migrate(ctx context.Context, stream int, from, to string) error {
	if from == to {
		return nil
	}
	c.mu.Lock()
	if c.migrating[stream] {
		c.mu.Unlock()
		return fmt.Errorf("%w: stream %d", ErrMigrationInFlight, stream)
	}
	c.migrating[stream] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.migrating, stream)
		c.mu.Unlock()
	}()

	src, ok := c.Node(from)
	if !ok {
		return fmt.Errorf("cluster: migrate source %q is not a member", from)
	}
	dst, ok := c.Node(to)
	if !ok {
		return fmt.Errorf("cluster: migrate target %q is not a member", to)
	}

	snap, err := src.ExportStream(ctx, stream)
	if errors.Is(err, client.ErrNoSession) {
		c.pin(stream, to)
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: export stream %d from %s: %w", stream, from, err)
	}
	if err := dst.ImportStream(ctx, stream, snap); err != nil {
		if rerr := src.ImportStream(ctx, stream, snap); rerr != nil {
			return fmt.Errorf("cluster: import stream %d into %s failed (%w) and restore to %s failed (%v): session lost",
				stream, to, err, from, rerr)
		}
		return fmt.Errorf("cluster: import stream %d into %s (session restored on %s): %w", stream, to, from, err)
	}
	c.pin(stream, to)
	return nil
}

// pin records that a stream now lives off its hash-home. A pin onto the
// stream's hash-home is dropped instead of stored: the ring already routes
// there.
func (c *Cluster) pin(stream int, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring.Owner(stream) == addr {
		delete(c.pins, stream)
		return
	}
	c.pins[stream] = addr
}

// AddMember adds one address to the member set (a node coming back after a
// restart, or a fresh node joining), rebuilding the ring. Adding an
// existing member is a no-op. Note that re-adding a member remaps ~1/N of
// unpinned streams' hash-homes onto it while their sessions still live
// elsewhere; callers migrate those streams to the new home, or their next
// request forks a fresh session.
func (c *Cluster) AddMember(addr string) error {
	members := c.Members()
	for _, m := range members {
		if m == addr {
			return nil
		}
	}
	return c.SetMembers(append(members, addr))
}

// RemoveMember drops one address from the member set (a killed or draining
// node), rebuilding the ring and dropping pins onto it. Removing the last
// member is refused; removing a non-member is a no-op.
func (c *Cluster) RemoveMember(addr string) error {
	members := c.Members()
	kept := members[:0]
	for _, m := range members {
		if m != addr {
			kept = append(kept, m)
		}
	}
	if len(kept) == len(members) {
		return nil
	}
	if len(kept) == 0 {
		return errors.New("cluster: cannot remove the last member")
	}
	return c.SetMembers(kept)
}
