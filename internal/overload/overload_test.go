package overload

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alert-project/alert/internal/metrics"
)

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestControllerShrinksQueueOnDelay(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 4, Queue: 16, Clock: clk.now})
	c.ObserveService(2*time.Millisecond, 1) // stable service
	// Queue delay (20ms) far above target (half of 10ms headroom): the
	// controller first spends the inflight headroom (capacity discovery),
	// then — capacity maxed, delay still hot — shrinks the queue so
	// shedding starts earlier.
	for i := 0; i < 200; i++ {
		clk.advance(5 * time.Millisecond)
		c.ObserveAdmission(20*time.Millisecond, 0.010)
	}
	li, lq := c.Limits()
	if li != 4*growCap {
		t.Fatalf("inflight limit did not max out first: %d", li)
	}
	if lq >= 16 {
		t.Fatalf("queue limit did not shrink under delay: %d", lq)
	}
	if lq < 1 {
		t.Fatalf("queue limit below floor: %d", lq)
	}
}

func TestControllerGrowsQueueUnderComfort(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 2, Queue: 4, Clock: clk.now})
	c.ObserveService(3*time.Millisecond, 1) // stable service
	// Negligible delay against 100ms headroom: the queue probes up, but
	// the inflight limit holds — growth needs demand (requests waiting),
	// and an idle gate learns nothing by growing.
	for i := 0; i < 400; i++ {
		clk.advance(5 * time.Millisecond)
		c.ObserveAdmission(10*time.Microsecond, 0.100)
	}
	li, lq := c.Limits()
	if li != 2 {
		t.Fatalf("inflight limit moved without demand: %d", li)
	}
	if lq <= 4 {
		t.Fatalf("queue limit did not grow: %d", lq)
	}
	if lq > 4*growCap {
		t.Fatalf("queue limit past cap: %d", lq)
	}
}

func TestControllerGrowsInflightUnderDemand(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 2, Queue: 4, Clock: clk.now})
	c.ObserveService(2*time.Millisecond, 1) // stable service
	// Delay past half the target (10ms headroom -> 5ms target) with stable
	// service: demand without contention, so concurrency probes up to the
	// cap to absorb the load.
	for i := 0; i < 200; i++ {
		clk.advance(5 * time.Millisecond)
		c.ObserveAdmission(4*time.Millisecond, 0.010)
	}
	li, _ := c.Limits()
	if li != 2*growCap {
		t.Fatalf("inflight limit did not grow to the cap under demand: %d", li)
	}
}

func TestControllerShrinksInflightOnServiceInflation(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 8, Queue: 16, Clock: clk.now})
	// Establish a low service floor, then inflate it well past 2x.
	for i := 0; i < 50; i++ {
		c.ObserveService(2*time.Millisecond, 1)
	}
	for i := 0; i < 200; i++ {
		c.ObserveService(50*time.Millisecond, 1)
	}
	// Tick the loop with moderate delay so the grow branch stays off.
	for i := 0; i < 100; i++ {
		clk.advance(5 * time.Millisecond)
		c.ObserveAdmission(4*time.Millisecond, 0.010)
	}
	li, _ := c.Limits()
	if li >= 8 {
		t.Fatalf("inflight limit did not shrink on service inflation: %d", li)
	}
	if li < 1 {
		t.Fatalf("inflight limit below floor: %d", li)
	}
}

// TestControllerHoldsInflightWhileNoneWaits: service samples inflate while
// every admission is granted at once, with zero wait — what a binwire
// burst's sojourn looks like — and the loop keeps stepping on the
// settlement instants. Nothing presses against the inflight limit, so
// shrinking it relieves nothing: it must not move.
func TestControllerHoldsInflightWhileNoneWaits(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 8, Queue: 16, Clock: clk.now})
	g := NewGate(c)
	for i := 0; i < 50; i++ {
		c.ObserveService(2*time.Millisecond, 1)
	}
	for i := 0; i < 200; i++ {
		if n, v, _ := g.TryAcquireN(0.010, 0.010, 0.010, 0.010); n != 4 || v != GateAdmitted {
			t.Fatalf("step %d: granted %d (%v), want all 4 at once (inflight limit %d)", i, n, v, g.Snapshot().InflightLimit)
		}
		clk.advance(5 * time.Millisecond)
		c.ObserveService(50*time.Millisecond, 4)
		c.Tick(clk.now())
		g.ReleaseN(4)
	}
	s := g.Snapshot()
	if s.ServiceEWMA < 20*time.Millisecond {
		t.Fatalf("service EWMA %v never inflated; the test is not testing anything", s.ServiceEWMA)
	}
	if s.InflightLimit != 8 || s.LimitDecreases != 0 {
		t.Fatalf("inflight limit moved to %d (%d decreases) with nobody waiting, want 8", s.InflightLimit, s.LimitDecreases)
	}
	if s.QueueLimit <= 16 {
		t.Fatalf("queue limit %d: the loop never stepped", s.QueueLimit)
	}
}

func TestControllerDrainEstimate(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 2, Queue: 8, RetryAfter: 70 * time.Millisecond, Clock: clk.now})
	// No service samples: the configured fallback.
	if got := c.DrainEstimate(5); got != 70*time.Millisecond {
		t.Fatalf("cold drain estimate = %v, want the configured 70ms", got)
	}
	for i := 0; i < 200; i++ {
		c.ObserveService(10*time.Millisecond, 1)
	}
	// 4 queued + 1 through 2 servers at 10ms each: ~25ms.
	got := c.DrainEstimate(4)
	if got < 20*time.Millisecond || got > 30*time.Millisecond {
		t.Fatalf("drain estimate = %v, want ~25ms", got)
	}
	if got := c.DrainEstimate(0); got < time.Millisecond {
		t.Fatalf("drain estimate below 1ms floor: %v", got)
	}
}

func TestGateFIFOAndLimits(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(NewController(Config{Inflight: 1, Queue: 2, Clock: clk.now}))

	v, _ := g.TryAcquire(0)
	if v != GateAdmitted {
		t.Fatalf("first acquire = %v, want admitted", v)
	}
	v1, w1 := g.TryAcquire(0)
	v2, w2 := g.TryAcquire(0)
	if v1 != GateQueued || v2 != GateQueued {
		t.Fatalf("queue verdicts = %v, %v", v1, v2)
	}
	if v, _ := g.TryAcquire(0); v != GateFull {
		t.Fatalf("over-queue verdict = %v, want full", v)
	}

	order := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if g.Wait(context.Background(), w1) {
			order <- 1
			g.Release()
		}
	}()
	// Ensure w1's goroutine parks before w2's so delivery order is FIFO by
	// enqueue, not goroutine scheduling: grants go strictly front-first.
	go func() {
		defer wg.Done()
		if g.Wait(context.Background(), w2) {
			order <- 2
			g.Release()
		}
	}()
	g.Release()
	wg.Wait()
	if a, b := <-order, <-order; a != 1 || b != 2 {
		t.Fatalf("grant order = %d,%d, want FIFO 1,2", a, b)
	}
	if in, q := g.Occupancy(); in != 0 || q != 0 {
		t.Fatalf("occupancy after drain = %d/%d, want 0/0", in, q)
	}
}

// TestGateGrantsLongestPrefix: TryAcquireN grants as many requests as fit
// under the inflight limit, in one step, and queues nothing while it grants;
// with nothing free its first request alone queues (or is refused), and
// ReleaseN hands the returned slots to the queue front-first.
func TestGateGrantsLongestPrefix(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 5, Queue: 1, Clock: clk.now})
	g := NewGate(ctrl)
	if n, v, w := g.TryAcquireN(0.1, 0.2, 0.3); n != 3 || v != GateAdmitted || w != nil {
		t.Fatalf("3 of 5 free: granted %d (%v), want all 3 admitted", n, v)
	}
	if n, v, _ := g.TryAcquireN(0.1, 0.1, 0.1, 0.1); n != 2 || v != GateAdmitted {
		t.Fatalf("2 of 5 free: granted %d (%v), want a prefix of 2", n, v)
	}
	if in, q := g.Occupancy(); in != 5 || q != 0 {
		t.Fatalf("occupancy = %d/%d, want 5/0", in, q)
	}
	n, v, w := g.TryAcquireN(0.1, 0.1)
	if n != 0 || v != GateQueued || w == nil {
		t.Fatalf("full gate: granted %d (%v), want the first request queued", n, v)
	}
	if n, v, _ := g.TryAcquireN(0.1); n != 0 || v != GateFull {
		t.Fatalf("full queue: granted %d (%v), want refused", n, v)
	}
	g.ReleaseN(3)
	if !g.Wait(context.Background(), w) {
		t.Fatal("queued request not granted by ReleaseN")
	}
	if in, q := g.Occupancy(); in != 3 || q != 0 {
		t.Fatalf("occupancy after ReleaseN(3) and one grant = %d/%d, want 3/0", in, q)
	}
	g.ReleaseN(3)
	// Six grants at zero wait, one headroom sample per request.
	var s metrics.OverloadSnapshot
	ctrl.mu.Lock()
	ctrl.snapshotLocked(&s)
	hist0 := ctrl.hist[0]
	ctrl.mu.Unlock()
	if hist0 != 6 || s.HeadroomEWMA <= 0 {
		t.Fatalf("zero-wait samples = %v, headroom %v; want 6 and > 0", hist0, s.HeadroomEWMA)
	}
}

// TestUncontendedGrantReadsNoClock: neither construction nor an
// uncontended acquire/release reads the clock, and the control loop still
// steps — on the settlement instants the caller already read and hands to
// Tick.
func TestUncontendedGrantReadsNoClock(t *testing.T) {
	var reads atomic.Int64
	ctrl := NewController(Config{Inflight: 4, Queue: 4, Clock: func() time.Time {
		reads.Add(1)
		return time.Unix(1000, 0)
	}})
	g := NewGate(ctrl)
	settled := time.Unix(1000, 0)
	for i := 0; i < 1000; i++ {
		if v, _ := g.TryAcquire(0.2); v != GateAdmitted {
			t.Fatalf("pair %d: acquire = %v", i, v)
		}
		settled = settled.Add(time.Millisecond)
		ctrl.ObserveService(time.Millisecond, 1)
		ctrl.Tick(settled)
		g.Release()
	}
	if n := reads.Load(); n != 0 {
		t.Fatalf("%d clock reads over 1000 uncontended acquire/release pairs, want 0", n)
	}
	if _, lq := ctrl.Limits(); lq <= 4 {
		t.Fatalf("queue limit %d: the loop never stepped on the settlement ticks", lq)
	}
}

func TestGateWaitCancel(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(NewController(Config{Inflight: 1, Queue: 4, Clock: clk.now}))
	g.ForceAcquire()
	_, w := g.TryAcquire(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if g.Wait(ctx, w) {
		t.Fatal("cancelled wait reported granted")
	}
	if _, q := g.Occupancy(); q != 0 {
		t.Fatalf("queued = %d after cancel, want 0", q)
	}
	// The slot freed later must not leak to the cancelled waiter.
	g.Release()
	if v, _ := g.TryAcquire(0); v != GateAdmitted {
		t.Fatalf("acquire after cancel+release = %v, want admitted", v)
	}
}

func TestGateCancelGrantRace(t *testing.T) {
	// A grant that lands while the waiter is cancelling must be returned:
	// run many racy iterations and verify no slot leaks.
	clk := newFakeClock()
	g := NewGate(NewController(Config{Inflight: 1, Queue: 8, Clock: clk.now}))
	for i := 0; i < 500; i++ {
		v, _ := g.TryAcquire(0)
		if v != GateAdmitted {
			t.Fatalf("iter %d: initial acquire = %v", i, v)
		}
		_, w := g.TryAcquire(0)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan bool)
		go func() { done <- g.Wait(ctx, w) }()
		go cancel()
		g.Release()
		if <-done {
			g.Release() // granted: normal path
		}
		if in, q := g.Occupancy(); in != 0 || q != 0 {
			t.Fatalf("iter %d: leaked occupancy %d/%d", i, in, q)
		}
	}
}

func TestGateResizeWakesWaiters(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 2, Queue: 8, Clock: clk.now})
	g := NewGate(ctrl)
	g.ForceAcquire()
	g.ForceAcquire()
	_, w := g.TryAcquire(0)
	// Grow the effective limit by hand, then release one slot: grantLocked
	// re-reads the limits and should wake the waiter and still have room.
	ctrl.mu.Lock()
	ctrl.limInflight = 4
	ctrl.mu.Unlock()
	g.Release()
	select {
	case <-w.c:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken after limit growth + release")
	}
	if v, _ := g.TryAcquire(0); v != GateAdmitted {
		t.Fatal("grown limit should admit directly")
	}
}

// TestGateRetryAfter: the hint a rejection carries is the configured one
// until the controller has measured service time, and the drain estimate
// after.
func TestGateRetryAfter(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 2, Queue: 8, RetryAfter: 70 * time.Millisecond, Clock: clk.now})
	g := NewGate(ctrl)
	if got := g.RetryAfter(); got != 70*time.Millisecond {
		t.Fatalf("cold hint = %v, want the configured 70ms", got)
	}
	for i := 0; i < 200; i++ {
		ctrl.ObserveService(10*time.Millisecond, 1)
	}
	if got, want := g.RetryAfter(), ctrl.DrainEstimate(0); got != want || got == 70*time.Millisecond {
		t.Fatalf("warm hint = %v, want the drain estimate %v", got, want)
	}
}

// TestSnapshotRetryHintMatchesRejection: the hint /v1/stats and /metrics
// report is the one a rejection carries at that moment — cold and after
// service samples, with a waiter queued.
func TestSnapshotRetryHintMatchesRejection(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 1, Queue: 8, Clock: clk.now})
	g := NewGate(ctrl)
	g.ForceAcquire()
	if _, w := g.TryAcquire(0); w == nil {
		t.Fatal("could not queue a waiter")
	}
	for _, samples := range []int{0, 1} {
		for i := 0; i < samples; i++ {
			ctrl.ObserveService(20*time.Millisecond, 1)
		}
		if got, want := g.Snapshot().RetryAfterHint, g.RetryAfter(); got != want {
			t.Errorf("%d service samples: snapshot hint %v, rejections carry %v", samples, got, want)
		}
	}
}

func TestGateSnapshot(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 2, Queue: 4, Clock: clk.now})
	g := NewGate(ctrl)
	g.ForceAcquire()
	ctrl.ObserveService(4*time.Millisecond, 1)
	ctrl.ObserveAdmission(2*time.Millisecond, 0.020)
	s := g.Snapshot()
	if s.Inflight != 1 || s.InflightLimit != 2 || s.QueueLimit != 4 {
		t.Fatalf("occupancy/limits wrong: %+v", s)
	}
	if s.ShedOverload != 0 || s.ShedDeadline != 0 || s.ShedDraining != 0 {
		t.Fatalf("the gate filled shed counters it does not keep: %+v", s)
	}
	if s.QueueDelayP95 <= 0 || s.ServiceEWMA <= 0 || s.HeadroomEWMA <= 0 {
		t.Fatalf("signal estimates empty: %+v", s)
	}
	if s.RetryAfterHint <= 0 {
		t.Fatalf("no retry hint: %+v", s)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Microsecond, 3 * time.Microsecond,
		time.Millisecond, 700 * time.Millisecond, time.Hour} {
		i := bucketOf(d)
		if up := bucketUpper(i); up < d {
			t.Fatalf("bucket upper %v < sample %v", up, d)
		}
		if i > 0 && bucketUpper(i-1) >= d {
			t.Fatalf("sample %v fits a lower bucket", d)
		}
	}
}
