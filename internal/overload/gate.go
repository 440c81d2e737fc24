package overload

import (
	"context"
	"sync"
	"time"

	"github.com/alert-project/alert/internal/metrics"
)

// Verdict is a TryAcquire outcome.
type Verdict int

const (
	// GateAdmitted: a slot was granted immediately; call Release when done.
	GateAdmitted Verdict = iota
	// GateQueued: the request joined the wait queue; call Wait on the
	// returned Waiter.
	GateQueued
	// GateFull: the wait queue is at its limit; the request must be shed.
	GateFull
)

// Gate is the shared admission semaphore both transports sit behind. It is
// a FIFO counting semaphore whose limits are read from the Controller on
// every grant, so the control loop can shrink or grow them live: a shrink
// strands no one (inflight drains down to the new limit as requests
// finish), a grow wakes queued waiters on the next release.
type Gate struct {
	ctrl *Controller

	mu       sync.Mutex
	inflight int
	queued   int
	// waiters is the FIFO wait queue: a slice ring with a head cursor.
	// Cancelled entries are nilled in place and skipped at pop, keeping
	// both pop and cancel O(1) amortized.
	waiters []*Waiter
	head    int
}

// Waiter is one queued admission request.
type Waiter struct {
	c        chan struct{}
	enq      time.Time
	deadline float64
	granted  bool
	pos      int // index into Gate.waiters, for O(1) cancel
}

// NewGate builds a gate governed by ctrl.
func NewGate(ctrl *Controller) *Gate {
	return &Gate{ctrl: ctrl}
}

// Controller returns the gate's governing controller.
func (g *Gate) Controller() *Controller { return g.ctrl }

// TryAcquire attempts admission of one request without waiting: n = 1 of
// TryAcquireN, kept in this form because bench/alertbench times it and the
// benchmark's files are frozen.
func (g *Gate) TryAcquire(deadlineS float64) (Verdict, *Waiter) {
	_, v, w := g.TryAcquireN(deadlineS)
	return v, w
}

// TryAcquireN attempts admission of len(deadlines) requests, in arrival
// order, without waiting; deadlines[i] is request i's deadline headroom in
// seconds (0 = none), which feeds the controller's headroom estimate. It
// grants the longest prefix that fits under the inflight limit with nobody
// queued — one lock and one controller update for all of it — and returns
// its length n with GateAdmitted; the caller holds n slots. When nothing
// fits, the first request alone joins the wait queue (GateQueued: Wait on
// the Waiter) or is refused (GateFull: shed it); the rest are not looked at.
func (g *Gate) TryAcquireN(deadlines ...float64) (n int, v Verdict, w *Waiter) {
	g.mu.Lock()
	limI, limQ := g.ctrl.Limits()
	if g.queued == 0 && g.inflight < limI {
		n = min(len(deadlines), limI-g.inflight)
		g.inflight += n
		g.mu.Unlock()
		g.ctrl.ObserveAdmission(0, deadlines[:n]...)
		return n, GateAdmitted, nil
	}
	if g.queued >= limQ {
		g.mu.Unlock()
		return 0, GateFull, nil
	}
	w = &Waiter{c: make(chan struct{}), enq: g.ctrl.now(), deadline: deadlines[0], pos: len(g.waiters)}
	g.waiters = append(g.waiters, w)
	g.queued++
	g.mu.Unlock()
	return 0, GateQueued, w
}

// Wait blocks until the waiter is granted a slot (true — the caller now
// holds it and must Release) or ctx is done (false — the caller holds
// nothing; if a grant raced the cancellation the slot is returned).
func (g *Gate) Wait(ctx context.Context, w *Waiter) bool {
	select {
	case <-w.c:
		return true
	case <-ctx.Done():
	}
	g.mu.Lock()
	if w.granted {
		// The grant landed between ctx firing and taking the lock; the
		// caller is walking away, so put the slot back.
		g.mu.Unlock()
		g.Release()
		return false
	}
	g.waiters[w.pos] = nil
	g.queued--
	g.mu.Unlock()
	return false
}

// Release returns one slot: n = 1 of ReleaseN, kept in this form because
// bench/alertbench times it and the benchmark's files are frozen.
func (g *Gate) Release() { g.ReleaseN(1) }

// ReleaseN returns n slots under one lock and hands them to the
// longest-waiting waiters, if any. It also re-reads the limits, so a grown
// inflight limit admits more waiters than slots came back.
func (g *Gate) ReleaseN(n int) {
	g.mu.Lock()
	g.inflight -= n
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked admits waiters in FIFO order while slots are free. Caller
// holds g.mu. The controller's admission callback runs under g.mu; the
// lock order g.mu -> ctrl.mu is safe because the controller never calls
// back into the gate.
func (g *Gate) grantLocked() {
	limI, _ := g.ctrl.Limits()
	for g.inflight < limI {
		w := g.popLocked()
		if w == nil {
			return
		}
		g.queued--
		g.inflight++
		w.granted = true
		wait := g.ctrl.now().Sub(w.enq)
		close(w.c)
		g.ctrl.ObserveAdmission(wait, w.deadline)
	}
}

// popLocked removes and returns the FIFO-front waiter, skipping cancelled
// entries, or nil if the queue is empty. Caller holds g.mu.
func (g *Gate) popLocked() *Waiter {
	for g.head < len(g.waiters) {
		w := g.waiters[g.head]
		g.waiters[g.head] = nil
		g.head++
		if w != nil {
			return w
		}
	}
	g.waiters = g.waiters[:0]
	g.head = 0
	return nil
}

// Saturated reports whether the gate is at or past its inflight limit or
// has anyone queued: whether the next TryAcquire would queue or refuse.
func (g *Gate) Saturated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	limI, _ := g.ctrl.Limits()
	return g.inflight >= limI || g.queued > 0
}

// RetryAfter is the hint a rejection should carry right now: the
// controller's drain estimate for the current backlog.
func (g *Gate) RetryAfter() time.Duration {
	_, queued := g.Occupancy()
	return g.ctrl.DrainEstimate(queued)
}

// Occupancy returns the current inflight and queued counts.
func (g *Gate) Occupancy() (inflight, queued int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight, g.queued
}

// Snapshot assembles the gate's observability view: occupancy plus the
// controller's limits and signal estimates. The shed counters are left to
// the caller, which counts the refusals.
func (g *Gate) Snapshot() metrics.OverloadSnapshot {
	var s metrics.OverloadSnapshot
	g.mu.Lock()
	s.Inflight = g.inflight
	s.Queued = g.queued
	g.mu.Unlock()
	g.ctrl.mu.Lock()
	g.ctrl.snapshotLocked(&s)
	g.ctrl.mu.Unlock()
	s.RetryAfterHint = g.ctrl.DrainEstimate(s.Queued)
	return s
}

// ForceAcquire occupies one slot unconditionally, ignoring the limits.
// Test hook: lets tests pin the gate at saturation.
func (g *Gate) ForceAcquire() {
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
}
