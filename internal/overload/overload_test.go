package overload

import (
	"context"
	"sync"
	"testing"
	"time"
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

func TestControllerStaticLimitsPinned(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 4, Queue: 8, Clock: clk.now})
	for i := 0; i < 100; i++ {
		clk.advance(20 * time.Millisecond)
		c.ObserveAdmission(time.Second, 0.010) // way past any target
	}
	if li, lq := c.Limits(); li != 4 || lq != 8 {
		t.Fatalf("static limits moved: inflight=%d queue=%d", li, lq)
	}
}

func TestControllerShrinksQueueOnDelay(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 4, Queue: 16, Adaptive: true, Clock: clk.now})
	c.ObserveService(2 * time.Millisecond) // stable service
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
	c := NewController(Config{Inflight: 2, Queue: 4, Adaptive: true, Clock: clk.now})
	c.ObserveService(3 * time.Millisecond) // stable service
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
	c := NewController(Config{Inflight: 2, Queue: 4, Adaptive: true, Clock: clk.now})
	c.ObserveService(2 * time.Millisecond) // stable service
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
	c := NewController(Config{Inflight: 8, Queue: 16, Adaptive: true, Clock: clk.now})
	// Establish a low service floor, then inflate it well past 2x.
	for i := 0; i < 50; i++ {
		c.ObserveService(2 * time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		c.ObserveService(50 * time.Millisecond)
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

func TestControllerHopeless(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 2, Queue: 4, SLOShed: true, Clock: clk.now})
	// Cold start never sheds, whatever the deadline.
	if c.Hopeless(0.0001) {
		t.Fatal("cold controller predicted hopeless")
	}
	for i := 0; i < 50; i++ {
		c.ObserveService(5 * time.Millisecond)
		c.ObserveAdmission(10*time.Millisecond, 0.050)
	}
	// Expected cost ~ p95(>=10ms bucket upper ~16ms) + 5ms service.
	if !c.Hopeless(0.008) {
		t.Fatal("8ms deadline should be hopeless against ~20ms expected cost")
	}
	if c.Hopeless(0.500) {
		t.Fatal("500ms deadline should not be hopeless")
	}
	if c.Hopeless(0) || c.Hopeless(-1) {
		t.Fatal("no-deadline requests can never be hopeless")
	}
}

func TestControllerDrainEstimate(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{Inflight: 2, Queue: 8, RetryAfter: 70 * time.Millisecond, Clock: clk.now})
	// No service samples: static fallback.
	if got := c.DrainEstimate(5); got != 70*time.Millisecond {
		t.Fatalf("cold drain estimate = %v, want static 70ms", got)
	}
	for i := 0; i < 200; i++ {
		c.ObserveService(10 * time.Millisecond)
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
	ctrl := NewController(Config{Inflight: 2, Queue: 8, Adaptive: true, Clock: clk.now})
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

func TestGateShouldShed(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 1, Queue: 4, SLOShed: true, Clock: clk.now})
	g := NewGate(ctrl)
	for i := 0; i < 50; i++ {
		ctrl.ObserveService(5 * time.Millisecond)
		ctrl.ObserveAdmission(10*time.Millisecond, 0.050)
	}
	if g.ShouldShed(0.001) {
		t.Fatal("unsaturated gate must never shed")
	}
	g.ForceAcquire()
	if !g.ShouldShed(0.001) {
		t.Fatal("saturated gate should shed a 1ms deadline")
	}
	if g.ShouldShed(1.0) {
		t.Fatal("serveable deadline shed")
	}
	if g.ShouldShed(0) {
		t.Fatal("no-deadline request shed")
	}

	off := NewGate(NewController(Config{Inflight: 1, Queue: 4, Clock: clk.now}))
	off.ForceAcquire()
	if off.ShouldShed(0.000001) {
		t.Fatal("shedding disabled but ShouldShed fired")
	}
}

func TestGateSnapshot(t *testing.T) {
	clk := newFakeClock()
	ctrl := NewController(Config{Inflight: 2, Queue: 4, Adaptive: true, SLOShed: true, Clock: clk.now})
	g := NewGate(ctrl)
	g.ForceAcquire()
	ctrl.ObserveService(4 * time.Millisecond)
	ctrl.ObserveAdmission(2*time.Millisecond, 0.020)
	s := g.Snapshot()
	if !s.Adaptive || !s.SLOShed {
		t.Fatalf("mode flags lost: %+v", s)
	}
	if s.Inflight != 1 || s.InflightLimit != 2 || s.QueueLimit != 4 {
		t.Fatalf("occupancy/limits wrong: %+v", s)
	}
	if s.ShedHopeless != 0 || s.ShedOverload != 0 || s.ShedDeadline != 0 || s.ShedDraining != 0 {
		t.Fatalf("the gate filled shed counters it does not keep: %+v", s)
	}
	if s.QueueDelayP95 <= 0 || s.ServiceEWMA <= 0 || s.HeadroomEWMA <= 0 {
		t.Fatalf("signal estimates empty: %+v", s)
	}
	if s.RetryAfterHint <= 0 {
		t.Fatalf("no retry hint: %+v", s)
	}
}

func TestSLOTracker(t *testing.T) {
	tr := NewSLOTracker(2)
	tr.RecordServed(7, true)
	tr.RecordServed(7, true)
	tr.RecordServed(7, false)
	tr.RecordRefused(7)
	tr.RecordServed(3, true)
	// Past the cap: streams 9 and 10 share the overflow bucket.
	tr.RecordServed(9, true)
	tr.RecordRefused(10)

	rows := tr.Snapshot()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (two streams + overflow)", len(rows))
	}
	if rows[0].Stream != 3 || rows[1].Stream != 7 || rows[2].Stream != -1 {
		t.Fatalf("row order wrong: %+v", rows)
	}
	s7 := rows[1]
	if s7.Served != 3 || s7.Met != 2 || s7.Shed != 1 {
		t.Fatalf("stream 7 tallies wrong: %+v", s7)
	}
	if s7.Attainment != 0.5 {
		t.Fatalf("stream 7 attainment = %v, want 0.5 (2 met of 4 offered)", s7.Attainment)
	}
	ov := rows[2]
	if ov.Served != 1 || ov.Shed != 1 {
		t.Fatalf("overflow tallies wrong: %+v", ov)
	}
	if empty := NewSLOTracker(0).Snapshot(); empty != nil {
		t.Fatalf("empty tracker snapshot = %+v, want nil", empty)
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
