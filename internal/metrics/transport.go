package metrics

import (
	"io"
	"sync/atomic"
	"time"
)

// Op names one data-plane operation of the network front end
// (internal/netserve). Both transports serve the same set through one
// pipeline, so both count them in the same TransportCounters slots.
type Op uint8

const (
	OpDecide Op = iota
	OpObserve
	OpBatch
	OpEvict
	OpExport
	OpCheckpoint
	OpImport
	numOps
)

// Reject names why the front end refused a request before serving it.
type Reject uint8

const (
	// RejectOverload: the admission queue was full.
	RejectOverload Reject = iota
	// RejectDeadline: the Spec deadline expired while queued at the gate.
	RejectDeadline
	// RejectDraining: the server was draining for shutdown.
	RejectDraining
	// RejectRestoring: the stream was mid-restore after a failover — the
	// bounded, Retry-After-hinted shed window the self-healing path is
	// allowed.
	RejectRestoring
	// RejectHopeless: the SLO shedder predicted the deadline unmeetable at
	// the saturated gate and shed the request before it queued.
	RejectHopeless
	numRejects
)

// TransportCounters are the counters every transport of the network front
// end keeps: ops served, refusals by class, malformed input, and the
// latency of decide and decide-batch requests from decode to accounting
// (admission wait, the rest of its burst and service included; the response
// write is not). They sit above ServeCounters — which count what the
// stream table served — and count what one wire surface saw. All methods
// are safe for concurrent use.
type TransportCounters struct {
	start time.Time

	ops            [numOps]atomic.Int64
	batchDecisions atomic.Int64
	rejected       [numRejects]atomic.Int64
	badInput       atomic.Int64

	// maxNanos tracks the latency high-water mark via CAS.
	reqNanos atomic.Int64
	reqCount atomic.Int64
	maxNanos atomic.Int64
}

// RecordOp folds in one served op that carries no latency: observe, evict,
// export, checkpoint, import.
func (c *TransportCounters) RecordOp(op Op) { c.ops[op].Add(1) }

// RecordDecides folds in one served decide request and its latency:
// OpDecide with n = 1, or OpBatch with the n decisions the batch carried.
func (c *TransportCounters) RecordDecides(op Op, n int, d time.Duration) {
	c.ops[op].Add(1)
	if op == OpBatch {
		c.batchDecisions.Add(int64(n))
	}
	c.reqNanos.Add(int64(d))
	c.reqCount.Add(1)
	for {
		cur := c.maxNanos.Load()
		if int64(d) <= cur || c.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// RecordReject counts one refused request by class.
func (c *TransportCounters) RecordReject(class Reject) { c.rejected[class].Add(1) }

// RecordBadInput counts a request that could not be served as sent:
// unparseable body or frame, unknown objective or frame type, bad path.
func (c *TransportCounters) RecordBadInput() { c.badInput.Add(1) }

// TransportSnapshot is the part of NetSnapshot and BinSnapshot the two
// transports share; it is embedded in both, so its JSON fields appear
// inline in each. The field names are a stable wire contract.
type TransportSnapshot struct {
	// Decides counts single decides served; Batches counts client-sent
	// batch requests and BatchDecisions the decisions inside them;
	// Observes counts accepted observes.
	Decides        int64 `json:"decides"`
	Observes       int64 `json:"observes"`
	Batches        int64 `json:"batches"`
	BatchDecisions int64 `json:"batch_decisions"`
	// Stream ops served: evictions, exports (snapshot + remove),
	// checkpoints (snapshot, keep serving), imports. They ride HTTP only,
	// so a BinSnapshot's read 0.
	Evictions   int64 `json:"evictions"`
	Exports     int64 `json:"exports"`
	Checkpoints int64 `json:"checkpoints"`
	Imports     int64 `json:"imports"`
	// Refusals by class; see the Reject constants.
	RejectedOverload  int64 `json:"rejected_overload"`
	RejectedDeadline  int64 `json:"rejected_deadline"`
	RejectedDraining  int64 `json:"rejected_draining"`
	RejectedRestoring int64 `json:"rejected_restoring,omitempty"`
	RejectedHopeless  int64 `json:"rejected_hopeless,omitempty"`
}

// snapshot reads the shared counters: each field atomically, though the
// set is not a single atomic cut.
func (c *TransportCounters) snapshot() TransportSnapshot {
	return TransportSnapshot{
		Decides:           c.ops[OpDecide].Load(),
		Observes:          c.ops[OpObserve].Load(),
		Batches:           c.ops[OpBatch].Load(),
		BatchDecisions:    c.batchDecisions.Load(),
		Evictions:         c.ops[OpEvict].Load(),
		Exports:           c.ops[OpExport].Load(),
		Checkpoints:       c.ops[OpCheckpoint].Load(),
		Imports:           c.ops[OpImport].Load(),
		RejectedOverload:  c.rejected[RejectOverload].Load(),
		RejectedDeadline:  c.rejected[RejectDeadline].Load(),
		RejectedDraining:  c.rejected[RejectDraining].Load(),
		RejectedRestoring: c.rejected[RejectRestoring].Load(),
		RejectedHopeless:  c.rejected[RejectHopeless].Load(),
	}
}

// latency returns the mean and high-water mark of the recorded decide and
// decide-batch latencies.
func (c *TransportCounters) latency() (avg, max time.Duration) {
	if n := c.reqCount.Load(); n > 0 {
		avg = time.Duration(c.reqNanos.Load() / n)
	}
	return avg, time.Duration(c.maxNanos.Load())
}

// writePrometheus renders the shared families under one transport's metric
// prefix ("alert_http", "alert_binwire").
func (s *TransportSnapshot) writePrometheus(w io.Writer, prefix string) {
	for _, row := range [...]struct {
		name, help string
		v          int64
	}{
		{"decides_total", "Single decide requests served.", s.Decides},
		{"observes_total", "Observe requests accepted.", s.Observes},
		{"batches_total", "Client-sent decide-batch requests served.", s.Batches},
		{"batch_decisions_total", "Decisions inside served decide-batch requests.", s.BatchDecisions},
		{"evictions_total", "Stream evictions served.", s.Evictions},
		{"exports_total", "Session exports served.", s.Exports},
		{"checkpoints_total", "Session checkpoints served.", s.Checkpoints},
		{"imports_total", "Session imports served.", s.Imports},
		{"rejected_overload_total", "Requests refused by a full admission queue.", s.RejectedOverload},
		{"rejected_deadline_total", "Requests expired while queued at admission.", s.RejectedDeadline},
		{"rejected_draining_total", "Requests refused during shutdown drain.", s.RejectedDraining},
		{"rejected_restoring_total", "Requests shed while their stream restored after failover.", s.RejectedRestoring},
		{"rejected_hopeless_total", "Requests shed by the SLO shedder: deadline predicted unmeetable.", s.RejectedHopeless},
	} {
		promCounter(w, prefix+"_"+row.name, row.help, row.v)
	}
}
