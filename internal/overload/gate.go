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

// TryAcquire attempts admission without waiting. GateAdmitted means a slot
// is held; GateQueued returns a Waiter to Wait on; GateFull means shed.
// deadlineS is the request's deadline headroom in seconds (0 = none); it
// feeds the controller's headroom estimate.
func (g *Gate) TryAcquire(deadlineS float64) (Verdict, *Waiter) {
	g.mu.Lock()
	limI, limQ := g.ctrl.Limits()
	if g.queued == 0 && g.inflight < limI {
		g.inflight++
		g.mu.Unlock()
		g.ctrl.ObserveAdmission(0, deadlineS)
		return GateAdmitted, nil
	}
	if g.queued >= limQ {
		g.mu.Unlock()
		return GateFull, nil
	}
	w := &Waiter{c: make(chan struct{}), enq: g.ctrl.now(), deadline: deadlineS, pos: len(g.waiters)}
	g.waiters = append(g.waiters, w)
	g.queued++
	g.mu.Unlock()
	return GateQueued, w
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

// Release returns a slot and hands it to the longest-waiting waiter, if
// any. It also re-reads the limits, so a grown inflight limit admits more
// than one waiter here.
func (g *Gate) Release() {
	g.mu.Lock()
	g.inflight--
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
// has anyone queued — the precondition for SLO shedding: an unsaturated
// gate never sheds.
func (g *Gate) Saturated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	limI, _ := g.ctrl.Limits()
	return g.inflight >= limI || g.queued > 0
}

// ShouldShed is the SLO shedder's admission-time predicate: shed when
// shedding is enabled, the gate is saturated, and the controller predicts
// the deadline cannot be met.
func (g *Gate) ShouldShed(deadlineS float64) bool {
	if !g.ctrl.SLOShed() || deadlineS <= 0 {
		return false
	}
	return g.Saturated() && g.ctrl.Hopeless(deadlineS)
}

// RetryAfter is the honest hint a rejection should carry right now: the
// controller's drain estimate for the current backlog.
func (g *Gate) RetryAfter() time.Duration {
	g.mu.Lock()
	queued := g.queued
	g.mu.Unlock()
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
	queued := g.queued
	g.mu.Unlock()
	g.ctrl.mu.Lock()
	g.ctrl.snapshotLocked(&s)
	g.ctrl.mu.Unlock()
	s.RetryAfterHint = g.ctrl.DrainEstimate(queued)
	return s
}

// ForceAcquire occupies one slot unconditionally, ignoring the limits.
// Test hook: lets tests pin the gate at saturation.
func (g *Gate) ForceAcquire() {
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
}
