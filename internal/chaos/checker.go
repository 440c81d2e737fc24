// Package chaos is the fleet-scale failure harness: it drives a live
// multi-node cluster through a compiled scenario.FleetTrace — flash crowds,
// node kill/restart cycles, byzantine clients — while a Checker machine-
// checks the serving invariants continuously instead of eyeballing logs.
//
// The invariants, precisely:
//
//   - No accepted request is ever lost: every Decide/Observe the driver
//     issues against a live route must succeed; admission rejections (429/
//     503) are legal, silent drops and transport errors to live nodes are
//     not.
//   - Single ownership: at any instant at most one node serves a stream.
//     Every decision carries the serving node's identity (DecideResponse
//     node_id), checked against the expected owner; ownership changes only
//     at reroutes the harness announced (migration, failover). At
//     checkpoint rounds the per-node stream tables are polled and must be
//     pairwise disjoint and jointly complete.
//   - Gauges balance: on every poll, each node's Streams gauge equals the
//     length of its stream-id listing and SessionBytes equals
//     Streams × serve.StreamBytes() — sessions are neither leaked nor double-
//     counted across exports, imports, kills, and restarts.
//   - Conservation across migration: a stream's final session must have
//     folded in exactly the decisions the driver issued, minus the ones an
//     unmanaged kill provably lost (issued since the last replication
//     round). The loss is computed, expected, and reported — never
//     silently absorbed.
//   - Determinism where defined: per-stream decision sequences are compared
//     byte-for-byte against a solo in-process controller fed identical
//     inputs. Drained kills and replication-aligned unmanaged kills
//     preserve determinism; an unmanaged kill off the replication cadence
//     forfeits it for the streams that lost observations, and the checker
//     reports those streams as diverged (with the first diverging round)
//     rather than hiding them.
//
// The Checker is deliberately separable from the Harness: it consumes
// announcements (SetOwner, ExpectDivergence) and evidence (RecordDecide,
// Poll) and can trail any live cluster the caller drives, not just the
// in-process fleet the Harness builds.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/serve"
)

// maxViolations bounds the violation log: a broken invariant usually fires
// on every subsequent request, and the first few occurrences carry all the
// signal.
const maxViolations = 64

// Divergence records one stream whose decision sequence departed from the
// solo reference — expected after a kill that lost observations.
type Divergence struct {
	Stream int `json:"stream"`
	// Round is the first round whose decision differed (-1 if the stream
	// was marked divergence-expected but never actually diverged).
	Round int `json:"round"`
	// Reason says which failure forfeited determinism (e.g. the kill round
	// and how many decisions the restored replica was missing).
	Reason string `json:"reason"`
}

// Report is the checker's verdict over a finished run.
type Report struct {
	Rounds      int   `json:"rounds"`
	Streams     int   `json:"streams"`
	Decides     int64 `json:"decides"`
	Observes    int64 `json:"observes"`
	Checkpoints int   `json:"checkpoints"`
	Kills       int   `json:"kills"`
	Restarts    int   `json:"restarts"`
	// Failovers counts kills the cluster absorbed on its own (unmanaged
	// mode): membership convergence + successor restore, no orchestrator.
	Failovers     int   `json:"failovers,omitempty"`
	Migrations    int   `json:"migrations"`
	ByzSent       int   `json:"byz_sent"`
	ByzRejected   int   `json:"byz_rejected"`
	MatchedRounds int64 `json:"matched_rounds"`
	// Diverged lists the streams excluded from the determinism comparison,
	// with the failure that excluded them. Sorted by stream.
	Diverged []Divergence `json:"diverged,omitempty"`
	// Violations are broken invariants; empty means the run is green.
	Violations []string `json:"violations,omitempty"`
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Summary renders the one-screen human verdict.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d rounds × %d streams: %d decides (%d matched vs solo), %d observes\n",
		r.Rounds, r.Streams, r.Decides, r.MatchedRounds, r.Observes)
	fmt.Fprintf(&b, "chaos: %d checkpoints, %d kills, %d restarts, %d migrations, %d/%d byzantine rejected\n",
		r.Checkpoints, r.Kills, r.Restarts, r.Migrations, r.ByzRejected, r.ByzSent)
	if r.Failovers > 0 {
		fmt.Fprintf(&b, "chaos: %d unmanaged failovers absorbed by the cluster itself\n", r.Failovers)
	}
	for _, d := range r.Diverged {
		fmt.Fprintf(&b, "chaos: stream %d diverged at round %d: %s\n", d.Stream, d.Round, d.Reason)
	}
	if len(r.Violations) == 0 {
		b.WriteString("chaos: all invariants held\n")
	} else {
		fmt.Fprintf(&b, "chaos: %d INVARIANT VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "chaos:   %s\n", v)
		}
	}
	return b.String()
}

// divergence is the checker's mutable per-stream divergence state.
type divergence struct {
	expected bool
	reason   string
	round    int // first diverging round, -1 until seen
}

// Checker accumulates evidence from a chaos run and judges the invariants.
// All methods are safe for concurrent use; the harness calls RecordDecide
// from every stream goroutine.
type Checker struct {
	mu sync.Mutex
	// owner is the announced serving node per stream (node id, not addr).
	owner map[int]string
	// diverged tracks streams excluded from the determinism comparison.
	diverged map[int]*divergence
	// issued and lost count decisions per stream: issued-and-succeeded, and
	// provably lost to kills (for the conservation check).
	issued map[int]int64
	lost   map[int]int64

	decides, observes, matched int64
	violations                 []string
	dropped                    int // violations beyond maxViolations
}

// NewChecker builds an empty checker.
func NewChecker() *Checker {
	return &Checker{
		owner:    make(map[int]string),
		diverged: make(map[int]*divergence),
		issued:   make(map[int]int64),
		lost:     make(map[int]int64),
	}
}

// Violate records a broken invariant.
func (c *Checker) Violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violate(fmt.Sprintf(format, args...))
}

func (c *Checker) violate(msg string) {
	if len(c.violations) >= maxViolations {
		c.dropped++
		return
	}
	c.violations = append(c.violations, msg)
}

// SetOwner announces that a stream is now served by the given node — the
// reroute hook the harness calls around migrations and kill recovery.
// Decisions served by any other node are single-ownership violations.
func (c *Checker) SetOwner(stream int, node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.owner[stream] = node
}

// ExpectDivergence marks a stream as having forfeited determinism (a hard
// kill lost `lost` of its decisions); subsequent mismatches against the
// solo reference are reported as divergence, not violations. Calling it
// again for an already-diverged stream keeps the first reason.
func (c *Checker) ExpectDivergence(stream int, lost int64, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lost[stream] += lost
	if d, ok := c.diverged[stream]; ok {
		if !d.expected {
			d.expected = true
		}
		return
	}
	c.diverged[stream] = &divergence{expected: true, reason: reason, round: -1}
}

// RecordDecide feeds one served decision into the checker: which node
// served it (from the response's node_id echo), the decision token, and
// the solo reference's token for the same round.
func (c *Checker) RecordDecide(stream, round int, node, got, want string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decides++
	c.issued[stream]++
	if own, ok := c.owner[stream]; ok && node != own {
		c.violate(fmt.Sprintf("single-ownership: stream %d round %d served by %q, expected owner %q",
			stream, round, node, own))
	}
	d := c.diverged[stream]
	if d != nil && d.round >= 0 {
		return // already diverged; the comparison is over for this stream
	}
	if got == want {
		c.matched++
		return
	}
	if d != nil && d.expected {
		d.round = round
		return
	}
	c.violate(fmt.Sprintf("determinism: stream %d round %d decided %q, solo decided %q (no failure forfeited this stream)",
		stream, round, got, want))
}

// RecordObserve counts one accepted observe.
func (c *Checker) RecordObserve() {
	c.mu.Lock()
	c.observes++
	c.mu.Unlock()
}

// Issued returns how many decides the driver has recorded for a stream —
// the harness uses it to size the loss when a stale replica is restored.
func (c *Checker) Issued(stream int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.issued[stream]
}

// CheckConservation verifies a stream's final session folded in every
// decision the driver issued minus the ones kills provably lost.
func (c *Checker) CheckConservation(stream int, finalDecisions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := c.issued[stream] - c.lost[stream]
	if finalDecisions != want {
		c.violate(fmt.Sprintf("conservation: stream %d session holds %d decisions, driver issued %d minus %d lost = %d",
			stream, finalDecisions, c.issued[stream], c.lost[stream], want))
	}
}

// Poll reads every live node's stats and stream listing and checks the
// table-shape invariants: gauges consistent with the listings, tables
// pairwise disjoint, and their union exactly the expected live set.
// expected maps stream id → true for every stream that should have a live
// session somewhere.
func (c *Checker) Poll(ctx context.Context, nodes map[string]*client.Client, expected map[int]bool) {
	type nodeState struct {
		name string
		ids  []int
	}
	states := make([]nodeState, 0, len(nodes))
	for name, cl := range nodes {
		stats, err := cl.Stats(ctx)
		if err != nil {
			c.Violate("poll: stats from live node %q failed: %v", name, err)
			continue
		}
		ids, err := cl.Streams(ctx)
		if err != nil {
			c.Violate("poll: stream listing from live node %q failed: %v", name, err)
			continue
		}
		// The listing races traffic in general, but the harness polls only
		// while the fleet is quiesced between rounds, so here they must
		// agree exactly.
		if int(stats.Serve.Streams) != len(ids) {
			c.Violate("gauge: node %q Streams gauge %d != %d listed sessions",
				name, stats.Serve.Streams, len(ids))
		}
		if want := stats.Serve.Streams * int64(serve.StreamBytes()); stats.Serve.SessionBytes != want {
			c.Violate("gauge: node %q SessionBytes %d != %d sessions × %d bytes",
				name, stats.Serve.SessionBytes, stats.Serve.Streams, serve.StreamBytes())
		}
		states = append(states, nodeState{name: name, ids: ids})
	}
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })

	seen := make(map[int]string, len(expected))
	for _, st := range states {
		for _, id := range st.ids {
			if prev, dup := seen[id]; dup {
				c.Violate("single-ownership: stream %d live on both %q and %q", id, prev, st.name)
				continue
			}
			seen[id] = st.name
			if !expected[id] {
				c.Violate("table: node %q serves unexpected stream %d", st.name, id)
			}
		}
	}
	for id := range expected {
		if _, ok := seen[id]; !ok {
			c.Violate("table: stream %d has no live session on any node", id)
		}
	}
}

// Fill copies the checker's tallies into a report (the harness adds its
// own lifecycle counts).
func (c *Checker) Fill(r *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Decides = c.decides
	r.Observes = c.observes
	r.MatchedRounds = c.matched
	r.Violations = append(r.Violations, c.violations...)
	if c.dropped > 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("… and %d further violations suppressed", c.dropped))
	}
	for stream, d := range c.diverged {
		if d.round < 0 && !d.expected {
			continue
		}
		r.Diverged = append(r.Diverged, Divergence{Stream: stream, Round: d.round, Reason: d.reason})
	}
	sort.Slice(r.Diverged, func(i, j int) bool { return r.Diverged[i].Stream < r.Diverged[j].Stream })
}
