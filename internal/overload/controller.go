// Package overload is the adaptive admission subsystem: a resizable gate
// (Gate) shared by the JSON and binary transports, a measured-delay
// controller (Controller) that tunes the gate's effective limits from
// observed queue delay vs. per-request deadline headroom, and an SLO
// tracker (SLOTracker) recording per-stream deadline attainment.
//
// The controller always measures — queue-delay EWMA/percentiles, service
// and headroom EWMAs — so observability is on even when adaptation is off
// and the gate runs its static configuration. What it sheds is counted by
// the front end's transports, which refuse the request.
package overload

import (
	"math"
	"sync"
	"time"

	"github.com/alert-project/alert/internal/metrics"
)

// Config sets the gate's static bounds and the controller's policy knobs.
// Zero-valued knobs take the documented defaults.
type Config struct {
	// Inflight and Queue are the static gate bounds — the controller's
	// initial operating point, and its fixed limits when Adaptive is off.
	Inflight int
	Queue    int
	// Adaptive lets the control loop move the effective limits. Off, the
	// limits stay pinned at Inflight/Queue and the loop is a no-op.
	Adaptive bool
	// SLOShed enables hopeless-deadline shedding at admission.
	SLOShed bool
	// AdjustEvery is the control-loop cadence (default 10ms). The loop also
	// waits for at least a handful of fresh queue-delay samples per step.
	AdjustEvery time.Duration
	// TargetFrac sets the queue-delay target as a fraction of the observed
	// deadline headroom EWMA (default 0.5): the gate aims to spend at most
	// half a typical request's headroom on waiting.
	TargetFrac float64
	// FallbackTarget is the queue-delay target before any deadline-carrying
	// request has been observed (default 5ms).
	FallbackTarget time.Duration
	// RetryAfter is the drain-estimate fallback before any service-latency
	// samples exist (default 50ms) — the static hint the server was
	// configured with.
	RetryAfter time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

const (
	defaultAdjustEvery    = 10 * time.Millisecond
	defaultTargetFrac     = 0.5
	defaultFallbackTarget = 5 * time.Millisecond
	defaultRetryAfter     = 50 * time.Millisecond

	// minAdjustSamples is the fewest fresh queue-delay samples a control
	// step needs; below it the loop would be steering on noise.
	minAdjustSamples = 4
	// decreaseBeta is the multiplicative-decrease factor; growth is +1.
	decreaseBeta = 0.7
	// growCap and shrinkFloor bound adaptation relative to the static
	// configuration: limits may grow to 4x and shrink to 1/8 (floor 1).
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
// tune the gate's effective limits around the static configuration:
//
//   - The inflight limit steers on observed service latency vs. its own
//     low-water mark: service time inflating with concurrency means the
//     engine is past its capacity knee, so the limit shrinks
//     multiplicatively; stable service time while requests wait (queue
//     delay at or above half the target) grows it additively, letting the
//     system discover capacity a conservative static bound left unused.
//
//   - The queue limit steers on observed queue delay: p95 above the target
//     (TargetFrac of the deadline-headroom EWMA) once capacity is maxed or
//     contended shrinks it multiplicatively — shedding starts earlier,
//     bounding how long an admitted request can wait — and delay
//     comfortably under the target re-grows it additively.
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

// NewController builds a controller at cfg's static operating point.
func NewController(cfg Config) *Controller {
	if cfg.Inflight < 1 {
		cfg.Inflight = 1
	}
	if cfg.Queue < 1 {
		cfg.Queue = 1
	}
	if cfg.AdjustEvery <= 0 {
		cfg.AdjustEvery = defaultAdjustEvery
	}
	if cfg.TargetFrac <= 0 {
		cfg.TargetFrac = defaultTargetFrac
	}
	if cfg.FallbackTarget <= 0 {
		cfg.FallbackTarget = defaultFallbackTarget
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	c := &Controller{
		cfg:         cfg,
		now:         now,
		minInfl:     max(1, cfg.Inflight/shrinkFloor),
		maxInfl:     cfg.Inflight * growCap,
		maxQueue:    cfg.Queue * growCap,
		limInflight: cfg.Inflight,
		limQueue:    cfg.Queue,
	}
	c.lastAdjust = now()
	return c
}

// Limits returns the effective inflight and queue limits right now.
func (c *Controller) Limits() (inflight, queue int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limInflight, c.limQueue
}

// ObserveAdmission folds in one admitted request: how long it waited at
// the gate and, when positive, its deadline headroom. Called by the Gate
// on every grant; it is also the control loop's clock tick.
func (c *Controller) ObserveAdmission(wait time.Duration, deadlineS float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := wait.Seconds()
	if ws < 0 {
		ws = 0
	}
	c.qdEWMA = ewma(c.qdEWMA, ws)
	c.hist[bucketOf(wait)]++
	c.samples++
	if deadlineS > 0 && !math.IsInf(deadlineS, 1) {
		c.headroomEWMA = ewma(c.headroomEWMA, deadlineS)
	}
	c.maybeAdjustLocked(c.now())
}

// ObserveService folds in one completed decide's service time — the
// engine-latency half of the serveability prediction.
func (c *Controller) ObserveService(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.svcEWMA = ewma(c.svcEWMA, d.Seconds())
	if c.svcFloor == 0 || c.svcEWMA < c.svcFloor {
		c.svcFloor = c.svcEWMA
	}
}

// maybeAdjustLocked runs one control step if the cadence and sample
// thresholds are met. Caller holds c.mu.
func (c *Controller) maybeAdjustLocked(now time.Time) {
	if !c.cfg.Adaptive {
		return
	}
	if now.Sub(c.lastAdjust) < c.cfg.AdjustEvery || c.samples < minAdjustSamples {
		return
	}
	target := c.cfg.TargetFrac * c.headroomEWMA
	if target <= 0 {
		target = c.cfg.FallbackTarget.Seconds()
	}
	p95 := c.percentileLocked(0.95).Seconds()
	contended := c.svcFloor > 0 && c.svcEWMA > svcInflation*c.svcFloor

	// Inflight loop: service latency is the contention signal. Inflated
	// service time means the engine is past its capacity knee — back off.
	// Stable service time with requests actually waiting means the static
	// bound is leaving capacity unused — raise concurrency to absorb the
	// load. (Growth needs demand: an idle gate learns nothing by growing.)
	switch {
	case contended:
		c.limInflight = c.shrink(c.limInflight, c.minInfl)
	case p95 >= target/2 && c.svcFloor > 0 && c.limInflight < c.maxInfl:
		c.limInflight++
		c.increases++
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

// Hopeless predicts whether a request with the given deadline headroom
// (seconds) would miss it even if admitted now: expected queue delay (p95)
// plus expected service time already exceeds the headroom. Cold start —
// no service samples yet — never predicts hopeless.
func (c *Controller) Hopeless(deadlineS float64) bool {
	if deadlineS <= 0 || math.IsInf(deadlineS, 1) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.svcEWMA <= 0 {
		return false
	}
	return c.percentileLocked(0.95).Seconds()+c.svcEWMA > deadlineS
}

// DrainEstimate is the controller's current guess at how long the gate
// needs to drain the given backlog: (queued+1) requests through
// limInflight servers at the observed service time, clamped to
// [1ms, 30s]. Before any service samples exist it falls back to the
// configured static hint.
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

// Adaptive reports whether the control loop may move the limits.
func (c *Controller) Adaptive() bool { return c.cfg.Adaptive }

// SLOShed reports whether hopeless-deadline shedding is enabled.
func (c *Controller) SLOShed() bool { return c.cfg.SLOShed }

// snapshotLocked fills the controller half of an OverloadSnapshot.
// Caller holds c.mu.
func (c *Controller) snapshotLocked(s *metrics.OverloadSnapshot) {
	s.Adaptive = c.cfg.Adaptive
	s.SLOShed = c.cfg.SLOShed
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
