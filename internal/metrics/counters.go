package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ServeCounters are the throughput/latency counters of the concurrent
// serving layer (internal/serve). All methods are safe for concurrent use;
// the recording path is a handful of atomic adds so it stays off the
// serving hot path's critical section.
type ServeCounters struct {
	start time.Time

	decisions atomic.Int64
	observes  atomic.Int64
	batches   atomic.Int64

	// candidatesScored counts candidates the decision scans scored — had
	// CDFs evaluated for (the work the CDF-free bounds did not avoid; divide
	// by decisions for the per-decide figure); infeasibleFallbacks counts
	// decisions that found no feasible candidate and served the fallback.
	candidatesScored    atomic.Int64
	infeasibleFallbacks atomic.Int64

	// streams and sessionBytes gauge the pool's live stream table: how many
	// per-stream sessions exist right now and their aggregate in-memory
	// footprint. Sessions are created on a stream's first request and
	// removed on eviction, so the pair is the capacity signal a
	// million-stream deployment watches.
	streams      atomic.Int64
	sessionBytes atomic.Int64

	// exports and imports count migrations: sessions snapshotted out of this
	// pool's stream table (ExportStream) and sessions restored into it
	// (ImportStream). exports − imports is a node's net outflow during a
	// rebalance or drain-down.
	exports atomic.Int64
	imports atomic.Int64

	// decideNanos accumulates end-to-end Decide service time (submit to
	// reply), the serving-latency signal; maxNanos tracks its high-water
	// mark via CAS.
	decideNanos atomic.Int64
	maxNanos    atomic.Int64

	// queueNanos accumulates in-pool queue delay — submit to worker pickup,
	// the pool's contribution to the admission controller's delay signal;
	// queueMax tracks its high-water mark via CAS.
	queueNanos atomic.Int64
	queueCount atomic.Int64
	queueMax   atomic.Int64
}

// NewServeCounters returns zeroed counters with the uptime clock started.
func NewServeCounters() *ServeCounters {
	return &ServeCounters{start: time.Now()}
}

// RecordDecides folds in n served decisions that each took d end to end,
// with one update per counter: a shard settles a group's decides at once.
func (c *ServeCounters) RecordDecides(n int, d time.Duration) {
	c.decisions.Add(int64(n))
	c.decideNanos.Add(int64(n) * int64(d))
	for {
		cur := c.maxNanos.Load()
		if int64(d) <= cur || c.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// RecordScan folds in the scan work behind the decisions a shard just
// served: candidates scored and infeasible-fallback decisions.
func (c *ServeCounters) RecordScan(scored, fallbacks int) {
	c.candidatesScored.Add(int64(scored))
	if fallbacks != 0 {
		c.infeasibleFallbacks.Add(int64(fallbacks))
	}
}

// RecordQueueWait folds in one task's in-pool queue delay: the time
// between submission to a shard and a worker picking it up.
func (c *ServeCounters) RecordQueueWait(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.queueNanos.Add(int64(d))
	c.queueCount.Add(1)
	for {
		cur := c.queueMax.Load()
		if int64(d) <= cur || c.queueMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// RecordObserves folds in n applied observations with one update: a shard
// settles a group's observes at once, like its decides.
func (c *ServeCounters) RecordObserves(n int) { c.observes.Add(int64(n)) }

// RecordSessionCreate moves the stream-table gauges for one session created
// on first use.
func (c *ServeCounters) RecordSessionCreate(bytes int64) {
	c.streams.Add(1)
	c.sessionBytes.Add(bytes)
}

// RecordSessionEvict moves the stream-table gauges for one evicted session.
func (c *ServeCounters) RecordSessionEvict(bytes int64) {
	c.streams.Add(-1)
	c.sessionBytes.Add(-bytes)
}

// RecordStreamExport folds in one session snapshotted out of the table
// (the export path already moves the table gauges via RecordSessionEvict).
func (c *ServeCounters) RecordStreamExport() { c.exports.Add(1) }

// RecordStreamImport folds in one session restored into the table (the
// import path already moves the table gauges via RecordSessionCreate).
func (c *ServeCounters) RecordStreamImport() { c.imports.Add(1) }

// RecordBatch folds in one grouped dispatch: a DecideBatch or a burst.
func (c *ServeCounters) RecordBatch() { c.batches.Add(1) }

// ServeSnapshot is a point-in-time view of the serving counters. It is the
// payload of GET /v1/stats on the network front end, so the JSON field
// names below are a stable wire contract: additive changes only. Duration
// fields marshal as integer nanoseconds (encoding/json's time.Duration
// encoding), which the _ns suffixes make explicit.
type ServeSnapshot struct {
	// Decisions and Observes count completed requests; Batches counts
	// grouped dispatches (DecideBatch calls and transport bursts).
	Decisions int64 `json:"decisions"`
	Observes  int64 `json:"observes"`
	Batches   int64 `json:"batches"`
	// CandidatesScored counts the candidates the decision scans scored —
	// CandidatesScored/Decisions against the size of the candidate space is
	// how much work the pruning leaves. InfeasibleFallbacks counts
	// decisions for which no candidate met the constraints.
	CandidatesScored    int64 `json:"candidates_scored"`
	InfeasibleFallbacks int64 `json:"infeasible_fallbacks"`
	// Streams gauges the live per-stream sessions in the pool's stream
	// table; SessionBytes their aggregate in-memory footprint.
	Streams      int64 `json:"streams"`
	SessionBytes int64 `json:"session_bytes"`
	// StreamExports and StreamImports count sessions migrated out of and
	// into the stream table.
	StreamExports int64 `json:"stream_exports"`
	StreamImports int64 `json:"stream_imports"`
	// AvgDecideLatency and MaxDecideLatency are end-to-end (submit to
	// reply) per-decision times.
	AvgDecideLatency time.Duration `json:"avg_decide_latency_ns"`
	MaxDecideLatency time.Duration `json:"max_decide_latency_ns"`
	// AvgQueueDelay and MaxQueueDelay are in-pool queue delays (submit to
	// worker pickup) — the pool's share of the decide latency above.
	AvgQueueDelay time.Duration `json:"avg_queue_delay_ns,omitempty"`
	MaxQueueDelay time.Duration `json:"max_queue_delay_ns,omitempty"`
	// Uptime is the time since the counters were created.
	Uptime time.Duration `json:"uptime_ns"`
	// DecidesPerSec is Decisions / Uptime.
	DecidesPerSec float64 `json:"decides_per_sec"`
}

// Snapshot returns a consistent-enough view for reporting: each field is
// read atomically, though the set is not a single atomic cut.
func (c *ServeCounters) Snapshot() ServeSnapshot {
	s := ServeSnapshot{
		Decisions:           c.decisions.Load(),
		Observes:            c.observes.Load(),
		Batches:             c.batches.Load(),
		CandidatesScored:    c.candidatesScored.Load(),
		InfeasibleFallbacks: c.infeasibleFallbacks.Load(),
		Streams:             c.streams.Load(),
		SessionBytes:        c.sessionBytes.Load(),
		StreamExports:       c.exports.Load(),
		StreamImports:       c.imports.Load(),
		Uptime:              time.Since(c.start),
	}
	s.MaxDecideLatency = time.Duration(c.maxNanos.Load())
	if s.Decisions > 0 {
		s.AvgDecideLatency = time.Duration(c.decideNanos.Load() / s.Decisions)
	}
	s.MaxQueueDelay = time.Duration(c.queueMax.Load())
	if n := c.queueCount.Load(); n > 0 {
		s.AvgQueueDelay = time.Duration(c.queueNanos.Load() / n)
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.DecidesPerSec = float64(s.Decisions) / sec
	}
	return s
}

// String renders the snapshot for logs and CLI output.
func (s ServeSnapshot) String() string {
	return fmt.Sprintf("decisions=%d observes=%d batches=%d streams=%d session_bytes=%d exports=%d imports=%d avg_latency=%s max_latency=%s rate=%.0f/s",
		s.Decisions, s.Observes, s.Batches, s.Streams, s.SessionBytes, s.StreamExports, s.StreamImports, s.AvgDecideLatency, s.MaxDecideLatency, s.DecidesPerSec)
}
