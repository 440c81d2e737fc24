// Package overload is the admission subsystem: a resizable gate (Gate)
// shared by the JSON and binary transports, and a measured-delay controller
// (Controller) that tunes the gate's effective limits from observed queue
// delay vs. per-request deadline headroom. There is one gate: the
// controller always runs, and the configured bounds are its starting
// point. What it sheds is counted by the front end's transports, which
// refuse the request.
package overload

import (
	"math"
	"sync"
	"time"

	"github.com/alert-project/alert/internal/metrics"
)

// Config sets the gate's initial bounds. Zero values take the documented
// defaults.
type Config struct {
	// Inflight and Queue are the controller's initial operating point; it
	// moves the limits within [1/8, 4x] of them.
	Inflight int
	Queue    int
	// RetryAfter is the hint a rejection carries before any service-latency
	// samples exist (default 50ms); after that it is the drain estimate.
	RetryAfter time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

const (
	defaultRetryAfter = 50 * time.Millisecond

	// adjustEvery is the control-loop cadence. The loop also waits for at
	// least minAdjustSamples fresh queue-delay samples per step.
	adjustEvery = 10 * time.Millisecond
	// targetFrac sets the queue-delay target as a fraction of the observed
	// deadline headroom EWMA: the gate aims to spend at most half a typical
	// request's headroom on waiting.
	targetFrac = 0.5
	// fallbackTarget is the queue-delay target before any deadline-carrying
	// request has been observed.
	fallbackTarget = 5 * time.Millisecond

	// minAdjustSamples is the fewest fresh queue-delay samples a control
	// step needs; below it the loop would be steering on noise.
	minAdjustSamples = 4
	// decreaseBeta is the multiplicative-decrease factor; growth is +1.
	decreaseBeta = 0.7
	// growCap and shrinkFloor bound adaptation relative to the configured
	// bounds: limits may grow to 4x and shrink to 1/8 (floor 1).
	growCap     = 4
	shrinkFloor = 8
	// svcInflation is how far the service EWMA must rise above its
	// low-water mark before the controller reads it as contention and
	// shrinks the inflight limit.
	svcInflation = 2.0
	// ewmaAlpha is the smoothing factor of all the controller's EWMAs.
	ewmaAlpha = 0.1
	// maxRetryAfter caps the drain estimate a rejection may hint.
	maxRetryAfter = 30 * time.Second

	// histBuckets is the queue-delay histogram size: bucket i holds delays
	// in (2^(i-1)µs, 2^iµs], so the top bucket is ~2^39µs ≈ 6 days.
	histBuckets = 40
)

// Controller is the measured-delay control loop. Two coupled AIMD loops
// tune the gate's effective limits around the configured bounds:
//
//   - The inflight limit moves only while requests wait at the gate (queue
//     delay p95 at or above half the target). Then service time inflated
//     past its own low-water mark means the engine is past its capacity
//     knee, so the limit shrinks multiplicatively; stable service time
//     grows it additively, letting the system discover capacity a
//     conservative bound left unused. With nobody waiting there is nothing
//     to steer: a burst's sojourn reads as inflated service, and shrinking
//     a limit nothing presses against only throttles the next burst.
//
//   - The queue limit steers on observed queue delay: p95 above the target
//     (targetFrac of the deadline-headroom EWMA) once capacity is maxed or
//     contended shrinks it multiplicatively — shedding starts earlier,
//     bounding how long an admitted request can wait — and delay
//     comfortably under the target re-grows it additively.
//
// The loop steps at most every adjustEvery, on the instants the gate and
// the front end hand it: a queued grant (ObserveAdmission with a wait) and
// a settlement (Tick). An uncontended grant reads no clock.
//
// All methods are safe for concurrent use.
type Controller struct {
	cfg      Config
	now      func() time.Time
	minInfl  int
	maxInfl  int
	maxQueue int

	mu          sync.Mutex
	limInflight int
	limQueue    int
	lastAdjust  time.Time
	samples     int // fresh queue-delay samples since the last adjust

	qdEWMA       float64 // seconds
	svcEWMA      float64
	svcFloor     float64 // decayed low-water mark of svcEWMA
	headroomEWMA float64

	hist [histBuckets]float64

	increases int64
	decreases int64
}

// NewController builds a controller at cfg's initial operating point.
func NewController(cfg Config) *Controller {
	if cfg.Inflight < 1 {
		cfg.Inflight = 1
	}
	if cfg.Queue < 1 {
		cfg.Queue = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &Controller{
		cfg:         cfg,
		now:         now,
		minInfl:     max(1, cfg.Inflight/shrinkFloor),
		maxInfl:     cfg.Inflight * growCap,
		maxQueue:    cfg.Queue * growCap,
		limInflight: cfg.Inflight,
		limQueue:    cfg.Queue,
	}
}

// Limits returns the effective inflight and queue limits right now.
func (c *Controller) Limits() (inflight, queue int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limInflight, c.limQueue
}

// ObserveAdmission folds in admitted requests, one per entry of deadlines:
// each waited wait at the gate and, when positive, deadlines[i] is its
// deadline headroom. Called by the Gate on every grant, once for a prefix
// granted together. A grant that waited also ticks the control loop; one
// that did not reads no clock.
func (c *Controller) ObserveAdmission(wait time.Duration, deadlines ...float64) {
	ws := wait.Seconds()
	if ws < 0 {
		ws = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range deadlines {
		c.qdEWMA = ewma(c.qdEWMA, ws)
		if d > 0 && !math.IsInf(d, 1) {
			c.headroomEWMA = ewma(c.headroomEWMA, d)
		}
	}
	c.hist[bucketOf(wait)] += float64(len(deadlines))
	c.samples += len(deadlines)
	if wait > 0 {
		c.maybeAdjustLocked(c.now())
	}
}

// ObserveService folds in n completed decides that each took d to serve —
// the engine-latency half of the serveability prediction.
func (c *Controller) ObserveService(d time.Duration, n int) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for ; n > 0; n-- {
		c.svcEWMA = ewma(c.svcEWMA, d.Seconds())
		if c.svcFloor == 0 || c.svcEWMA < c.svcFloor {
			c.svcFloor = c.svcEWMA
		}
	}
}

// Tick runs a control step at now, the instant the caller settled served
// work, if one is due.
func (c *Controller) Tick(now time.Time) {
	c.mu.Lock()
	c.maybeAdjustLocked(now)
	c.mu.Unlock()
}

// maybeAdjustLocked runs one control step if the cadence and sample
// thresholds are met. Caller holds c.mu.
func (c *Controller) maybeAdjustLocked(now time.Time) {
	if now.Sub(c.lastAdjust) < adjustEvery || c.samples < minAdjustSamples {
		return
	}
	target := targetFrac * c.headroomEWMA
	if target <= 0 {
		target = fallbackTarget.Seconds()
	}
	p95 := c.percentileLocked(0.95).Seconds()
	contended := c.svcFloor > 0 && c.svcEWMA > svcInflation*c.svcFloor

	// Inflight loop: it acts only on demand, requests actually waiting.
	// Then inflated service time means the engine is past its capacity
	// knee — back off — and stable service time means the limit is leaving
	// capacity unused — raise concurrency to absorb the load.
	if p95 >= target/2 {
		switch {
		case contended:
			c.limInflight = c.shrink(c.limInflight, c.minInfl)
		case c.svcFloor > 0 && c.limInflight < c.maxInfl:
			c.limInflight++
			c.increases++
		}
	}

	// Queue loop: the queue limit bounds how long an admitted request can
	// wait, so it steers on the queue-delay percentile. While the inflight
	// loop still has room to add capacity, a hot queue is its demand
	// signal, not a reason to shed — only once capacity is maxed out (or
	// the engine is contended) does delay above target shrink the queue so
	// shedding starts earlier.
	switch {
	case p95 > target && (contended || c.limInflight >= c.maxInfl):
		c.limQueue = c.shrink(c.limQueue, 1)
	case p95 < target/2 && c.limQueue < c.maxQueue:
		// Comfortable margin: admit more waiting before refusing.
		c.limQueue++
		c.increases++
	}

	// Let the service low-water mark drift up slowly so a real capacity
	// change (faster hardware, lighter specs) can be re-learned.
	c.svcFloor *= 1.01

	// Age the histogram so the percentiles track the current regime.
	for i := range c.hist {
		c.hist[i] *= 0.5
	}
	c.samples = 0
	c.lastAdjust = now
}

// shrink applies one multiplicative-decrease step with the given floor.
func (c *Controller) shrink(limit, floor int) int {
	next := int(float64(limit) * decreaseBeta)
	if next >= limit {
		next = limit - 1
	}
	if next < floor {
		next = floor
	}
	if next != limit {
		c.decreases++
	}
	return next
}

// DrainEstimate is the controller's current guess at how long the gate
// needs to drain the given backlog: (queued+1) requests through
// limInflight servers at the observed service time, clamped to
// [1ms, 30s]. Before any service samples exist it falls back to the
// configured hint.
func (c *Controller) DrainEstimate(queued int) time.Duration {
	c.mu.Lock()
	svc, lim := c.svcEWMA, c.limInflight
	c.mu.Unlock()
	if svc <= 0 {
		return c.cfg.RetryAfter
	}
	if queued < 0 {
		queued = 0
	}
	est := time.Duration(float64(queued+1) * svc / float64(lim) * float64(time.Second))
	if est < time.Millisecond {
		est = time.Millisecond
	}
	if est > maxRetryAfter {
		est = maxRetryAfter
	}
	return est
}

// snapshotLocked fills the controller half of an OverloadSnapshot.
// Caller holds c.mu.
func (c *Controller) snapshotLocked(s *metrics.OverloadSnapshot) {
	s.InflightLimit = c.limInflight
	s.QueueLimit = c.limQueue
	s.QueueDelayEWMA = secsDur(c.qdEWMA)
	s.QueueDelayP50 = c.percentileLocked(0.50)
	s.QueueDelayP95 = c.percentileLocked(0.95)
	s.QueueDelayP99 = c.percentileLocked(0.99)
	s.ServiceEWMA = secsDur(c.svcEWMA)
	s.HeadroomEWMA = secsDur(c.headroomEWMA)
	s.LimitIncreases = c.increases
	s.LimitDecreases = c.decreases
}

// percentileLocked reads percentile p (0..1) off the log-bucketed delay
// histogram, as the upper bound of the bucket holding the rank. Caller
// holds c.mu.
func (c *Controller) percentileLocked(p float64) time.Duration {
	var total float64
	for _, n := range c.hist {
		total += n
	}
	if total <= 0 {
		return 0
	}
	rank := p * total
	var seen float64
	for i, n := range c.hist {
		seen += n
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketOf maps a delay to its histogram bucket: bucket i covers
// (2^(i-1)µs, 2^iµs].
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	i := 0
	for upper := int64(1); us > upper && i < histBuckets-1; upper <<= 1 {
		i++
	}
	return i
}

// bucketUpper is the inverse: bucket i's upper bound, 2^iµs.
func bucketUpper(i int) time.Duration {
	return time.Duration(int64(1)<<uint(i)) * time.Microsecond
}

func ewma(cur, sample float64) float64 {
	if cur == 0 {
		return sample
	}
	return cur + ewmaAlpha*(sample-cur)
}

func secsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
