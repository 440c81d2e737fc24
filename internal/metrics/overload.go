package metrics

import "time"

// OverloadSnapshot is a point-in-time view of the adaptive admission gate
// (internal/overload): the live limits the controller is running, the
// queue-delay signal it is steering on, and the shed-by-class counters.
// It is served inside GET /v1/stats and rendered as alert_overload_*
// gauges/counters on GET /metrics, so the JSON field names are a stable
// wire contract; Duration fields marshal as integer nanoseconds.
type OverloadSnapshot struct {
	// Adaptive reports whether the measured-delay controller is allowed to
	// move the limits; SLOShed whether hopeless-deadline shedding is on.
	// Both false means the gate is running the static configuration, but
	// the controller still measures (observability is always on).
	Adaptive bool `json:"adaptive"`
	SLOShed  bool `json:"slo_shed"`
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
	// expected per-request deadline headroom. Serveability prediction is
	// QueueDelayP95 + ServiceEWMA vs. a request's deadline.
	ServiceEWMA  time.Duration `json:"service_ewma_ns"`
	HeadroomEWMA time.Duration `json:"headroom_ewma_ns"`
	// RetryAfterHint is the controller's current drain estimate — the
	// honest Retry-After a rejection carries right now.
	RetryAfterHint time.Duration `json:"retry_after_hint_ns"`
	// LimitIncreases and LimitDecreases count control-loop moves.
	LimitIncreases int64 `json:"limit_increases"`
	LimitDecreases int64 `json:"limit_decreases"`
	// Shed-by-class counters: Hopeless is the SLO shedder (deadline could
	// not have been met), Overload the full queue, Deadline expiry while
	// queued, Draining shutdown refusals. Each is the sum of the
	// transports' Rejected* counter of the same class.
	ShedHopeless int64 `json:"shed_hopeless"`
	ShedOverload int64 `json:"shed_overload"`
	ShedDeadline int64 `json:"shed_deadline"`
	ShedDraining int64 `json:"shed_draining"`
}

// StreamSLO is one stream's deadline-attainment record: how many decides
// it was served, how many of those met their deadline, and how many of its
// requests the gate shed. Served inside GET /v1/stats.
type StreamSLO struct {
	// Stream is the stream id; -1 is the overflow bucket that absorbs
	// streams past the tracker's cap.
	Stream int   `json:"stream"`
	Served int64 `json:"served"`
	Met    int64 `json:"met"`
	Shed   int64 `json:"shed"`
	// Attainment is Met / (Served + Shed): sheds count as misses, because
	// to the caller a shed request is a deadline miss.
	Attainment float64 `json:"attainment"`
}
