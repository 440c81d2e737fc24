package metrics

import "time"

// OverloadSnapshot is a point-in-time view of the admission gate
// (internal/overload): the live limits the controller is running, the
// queue-delay signal it is steering on, and the shed-by-class counters.
// It is served inside GET /v1/stats and rendered as alert_overload_*
// gauges/counters on GET /metrics, so the JSON field names are a stable
// wire contract; Duration fields marshal as integer nanoseconds.
type OverloadSnapshot struct {
	// InflightLimit and QueueLimit are the effective limits right now;
	// Inflight and Queued the current occupancy against them.
	InflightLimit int `json:"inflight_limit"`
	QueueLimit    int `json:"queue_limit"`
	Inflight      int `json:"inflight"`
	Queued        int `json:"queued"`
	// QueueDelayEWMA and the percentiles describe the observed admission
	// queue delay — the signal the controller steers on.
	QueueDelayEWMA time.Duration `json:"queue_delay_ewma_ns"`
	QueueDelayP50  time.Duration `json:"queue_delay_p50_ns"`
	QueueDelayP95  time.Duration `json:"queue_delay_p95_ns"`
	QueueDelayP99  time.Duration `json:"queue_delay_p99_ns"`
	// ServiceEWMA is the engine's expected decide latency; HeadroomEWMA the
	// expected per-request deadline headroom.
	ServiceEWMA  time.Duration `json:"service_ewma_ns"`
	HeadroomEWMA time.Duration `json:"headroom_ewma_ns"`
	// RetryAfterHint is the hint a rejection carries right now: the
	// controller's drain estimate, or the configured Retry-After before it
	// has measured any service time.
	RetryAfterHint time.Duration `json:"retry_after_hint_ns"`
	// LimitIncreases and LimitDecreases count control-loop moves.
	LimitIncreases int64 `json:"limit_increases"`
	LimitDecreases int64 `json:"limit_decreases"`
	// Shed-by-class counters: Overload the full queue, Deadline expiry
	// while queued, Draining shutdown refusals. Each is the sum of the
	// transports' Rejected* counter of the same class.
	ShedOverload int64 `json:"shed_overload"`
	ShedDeadline int64 `json:"shed_deadline"`
	ShedDraining int64 `json:"shed_draining"`
	// ShedHopeless is always 0: no reject class feeds it. The field remains
	// only because bench/alertbench sums it and the benchmark's files are
	// frozen.
	ShedHopeless int64 `json:"-"`
}
