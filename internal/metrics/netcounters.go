package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// NetCounters are the HTTP surface's counters: the shared transport set
// plus the ungated reads only HTTP serves.
type NetCounters struct {
	TransportCounters
	reads atomic.Int64
}

// NewNetCounters returns zeroed counters with the uptime clock started.
func NewNetCounters() *NetCounters {
	return &NetCounters{TransportCounters: TransportCounters{start: time.Now()}}
}

// RecordRead folds in one ungated read: stats, metrics, streams,
// membership view, replica list.
func (c *NetCounters) RecordRead() { c.reads.Add(1) }

// NetSnapshot is a point-in-time view of the HTTP counters. Like
// ServeSnapshot it is served over GET /v1/stats, so the JSON field names
// are a stable wire contract; Duration fields marshal as integer
// nanoseconds.
type NetSnapshot struct {
	TransportSnapshot
	// Reads counts the ungated GETs; BadRequests malformed requests.
	Reads       int64 `json:"reads"`
	BadRequests int64 `json:"bad_requests"`
	// AvgRequestLatency and MaxRequestLatency are end-to-end handler times
	// of decide and decide-batch requests, admission wait included.
	AvgRequestLatency time.Duration `json:"avg_request_latency_ns"`
	MaxRequestLatency time.Duration `json:"max_request_latency_ns"`
	// Uptime is the time since the counters were created.
	Uptime time.Duration `json:"uptime_ns"`
}

// Snapshot returns a consistent-enough view for reporting: each field is
// read atomically, though the set is not a single atomic cut.
func (c *NetCounters) Snapshot() NetSnapshot {
	s := NetSnapshot{
		TransportSnapshot: c.snapshot(),
		Reads:             c.reads.Load(),
		BadRequests:       c.badInput.Load(),
		Uptime:            time.Since(c.start),
	}
	s.AvgRequestLatency, s.MaxRequestLatency = c.latency()
	return s
}

// String renders the snapshot for logs and CLI output.
func (s NetSnapshot) String() string {
	return fmt.Sprintf("decides=%d batches=%d batch_decisions=%d observes=%d rejected_overload=%d rejected_deadline=%d rejected_draining=%d avg_latency=%s max_latency=%s",
		s.Decides, s.Batches, s.BatchDecisions, s.Observes,
		s.RejectedOverload, s.RejectedDeadline, s.RejectedDraining,
		s.AvgRequestLatency, s.MaxRequestLatency)
}
