package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// BinCounters are the binwire connections' counters: the shared
// transport set plus what only a persistent framed transport has —
// connections, frames, and how many decide requests were coalesced into
// per-connection bursts that crossed the engine together.
type BinCounters struct {
	TransportCounters

	connsOpened atomic.Int64
	connsClosed atomic.Int64
	framesIn    atomic.Int64
	framesOut   atomic.Int64

	// coalesceFlushes counts bursts that served more than one decide;
	// coalesced counts the decide requests inside them (decides served alone
	// appear only in decides). coalesced/coalesceFlushes is the realized
	// burst size.
	coalesceFlushes atomic.Int64
	coalesced       atomic.Int64
}

// NewBinCounters returns zeroed counters with the uptime clock started.
func NewBinCounters() *BinCounters {
	return &BinCounters{TransportCounters: TransportCounters{start: time.Now()}}
}

// RecordConnOpen counts an accepted connection.
func (c *BinCounters) RecordConnOpen() { c.connsOpened.Add(1) }

// RecordConnClose counts a closed connection.
func (c *BinCounters) RecordConnClose() { c.connsClosed.Add(1) }

// RecordFrameIn counts a frame read off a connection.
func (c *BinCounters) RecordFrameIn() { c.framesIn.Add(1) }

// RecordFramesOut counts n frames handed to a connection in one write.
func (c *BinCounters) RecordFramesOut(n int) { c.framesOut.Add(int64(n)) }

// RecordCoalesce folds in one burst that served size > 1 decide requests,
// pipelined on one connection, with a single engine crossing.
func (c *BinCounters) RecordCoalesce(size int) {
	c.coalesceFlushes.Add(1)
	c.coalesced.Add(int64(size))
}

// BinSnapshot is a point-in-time view of the binwire counters,
// served inside GET /v1/stats; the JSON field names are a stable wire
// contract and Duration fields marshal as integer nanoseconds.
type BinSnapshot struct {
	// ConnsOpened/ConnsClosed count accepted and closed connections;
	// their difference is the live connection count.
	ConnsOpened int64 `json:"conns_opened"`
	ConnsClosed int64 `json:"conns_closed"`
	// FramesIn/FramesOut count frames read and written.
	FramesIn  int64 `json:"frames_in"`
	FramesOut int64 `json:"frames_out"`
	TransportSnapshot
	// CoalesceFlushes counts per-connection bursts that served more than one
	// decide and Coalesced the decide requests they served: decides that
	// crossed the engine together rather than alone. (The names date from
	// the cross-connection coalescer; they are a wire contract.)
	CoalesceFlushes int64 `json:"coalesce_flushes"`
	Coalesced       int64 `json:"coalesced"`
	// BadFrames counts frames that parsed but could not be served (unknown
	// type, malformed body, unsupported version).
	BadFrames int64 `json:"bad_frames"`
	// AvgDecideLatency and MaxDecideLatency cover decide frames from frame
	// decode to accounting, admission wait and the rest of the frame's
	// burst included.
	AvgDecideLatency time.Duration `json:"avg_decide_latency_ns"`
	MaxDecideLatency time.Duration `json:"max_decide_latency_ns"`
	// Uptime is the time since the counters were created.
	Uptime time.Duration `json:"uptime_ns"`
}

// Snapshot returns a consistent-enough view for reporting: each field is
// read atomically, though the set is not a single atomic cut.
func (c *BinCounters) Snapshot() BinSnapshot {
	s := BinSnapshot{
		ConnsOpened:       c.connsOpened.Load(),
		ConnsClosed:       c.connsClosed.Load(),
		FramesIn:          c.framesIn.Load(),
		FramesOut:         c.framesOut.Load(),
		TransportSnapshot: c.snapshot(),
		CoalesceFlushes:   c.coalesceFlushes.Load(),
		Coalesced:         c.coalesced.Load(),
		BadFrames:         c.badInput.Load(),
		Uptime:            time.Since(c.start),
	}
	s.AvgDecideLatency, s.MaxDecideLatency = c.latency()
	return s
}

// String renders the snapshot for logs and CLI output.
func (s BinSnapshot) String() string {
	return fmt.Sprintf("conns=%d/%d frames_in=%d frames_out=%d decides=%d coalesced=%d/%d observes=%d rejected_overload=%d avg_latency=%s",
		s.ConnsOpened-s.ConnsClosed, s.ConnsOpened, s.FramesIn, s.FramesOut,
		s.Decides, s.Coalesced, s.CoalesceFlushes, s.Observes,
		s.RejectedOverload, s.AvgDecideLatency)
}
