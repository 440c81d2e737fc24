package netserve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/overload"
)

// This file is the transport-neutral operation core. Every data-plane op —
// decide, observe, batch, export, checkpoint, import, evict — runs
//
//	restoring hold → SLO shed → admit → serve → account → release
//
// here, exactly once, and comes back as a typed result or a reject. The
// HTTP handlers (netserve.go) and the binwire read loop (binary.go, which
// carries decide, observe and batch) only decode a request into a call and
// encode what it returns; the counters an op moves are the calling
// transport's, passed in as tc.

// reject is why an op was refused; the zero value means it was served.
type reject struct {
	// status is the HTTP status. binwire's error codes mirror HTTP's, so it
	// is the error frame's code too.
	status int
	// hint is the Retry-After of a retryable reject, 0 otherwise.
	hint time.Duration
	msg  string
}

func (r reject) refused() bool { return r.status != 0 }

// retryAfterMs is the hint as both wires carry it: whole milliseconds,
// floored at 1 for a retryable reject because clients on both transports
// read 0 as "no hint".
func (r reject) retryAfterMs() int64 {
	if r.hint <= 0 {
		return 0
	}
	if ms := int64(r.hint / time.Millisecond); ms > 1 {
		return ms
	}
	return 1
}

// badInput counts and describes a request that could not be served as sent.
func badInput(tc *metrics.TransportCounters, msg string) reject {
	tc.RecordBadInput()
	return reject{status: http.StatusBadRequest, msg: msg}
}

// slot is what admission and accounting read of one request — whose it is
// and the deadline it must meet (0: none). The request itself lives in the
// engine burst; this is the pipeline's view of it.
type slot struct {
	stream   int
	deadline float64
}

// begin is the admission half of every gated op: the restoring hold and
// the tightest deadline over reqs (the requests the op carries; nil for
// stream ops, which have neither stream hold nor deadline), then the SLO
// shedder and the gate. On a zero reject the op holds a gate slot and MUST
// end in release (finish, for decides) — from that point it is accepted and
// will be served no matter what. ctx bounds the wait at the gate together
// with the deadline; it is only consulted, and a deadline context only
// built, when the request actually queues.
func (s *Server) begin(ctx context.Context, tc *metrics.TransportCounters, op metrics.Op, reqs []slot) reject {
	// The op's admission deadline is its tightest member's: if that one
	// can no longer be served in time, the whole batch is late.
	deadline := 0.0
	for i := range reqs {
		// Shed before any state is touched, so nothing is lost — the
		// client retries onto the finished restore. A batch touching a
		// restoring stream sheds whole: serving the rest while skipping one
		// slot would break the "results in request order" contract.
		if s.recovery != nil && s.recovery.Restoring(reqs[i].stream) {
			tc.RecordReject(metrics.RejectRestoring)
			return reject{http.StatusServiceUnavailable, s.retryAfter,
				fmt.Sprintf("stream %d is restoring after failover", reqs[i].stream)}
		}
		if d := reqs[i].deadline; d > 0 && (deadline == 0 || d < deadline) {
			deadline = d
		}
	}
	// Export is how sessions leave a draining node, so refusing it would
	// deadlock a graceful hand-off (imports stay refused — a draining node
	// must shed state, not accept it).
	class, ok := s.admit(ctx, deadline, op == metrics.OpExport)
	if ok {
		return reject{}
	}
	if op == metrics.OpDecide || op == metrics.OpBatch {
		// To the caller a shed decide is a deadline miss.
		for i := range reqs {
			s.slo.RecordRefused(reqs[i].stream)
		}
	}
	// The transport's reject counter is the one ledger of a shed: the
	// gate's shed-by-class view is read off it (Server.snapshots).
	tc.RecordReject(class)
	switch class {
	case metrics.RejectHopeless:
		// The drain estimate, deliberately not clamped to the request's
		// headroom: this deadline is already lost, the hint is for the
		// next one.
		return reject{http.StatusTooManyRequests, s.gate.RetryAfter(), "deadline cannot be met at current load"}
	case metrics.RejectOverload:
		return reject{http.StatusTooManyRequests, s.retryHint(deadline), "admission queue full"}
	case metrics.RejectDeadline:
		// The deadline is spent, so there is nothing to clamp to.
		return reject{http.StatusTooManyRequests, s.retryHint(0), "deadline expired before admission"}
	default:
		return reject{http.StatusServiceUnavailable, s.retryAfter, "server draining"}
	}
}

// admit passes one request through the SLO shedder and the gate. On ok the
// caller holds a slot; otherwise class says why not.
func (s *Server) admit(ctx context.Context, deadlineS float64, drainExempt bool) (class metrics.Reject, ok bool) {
	// Shed a deadline predicted unmeetable before it joins the queue, so
	// every shed request is one that would have missed anyway.
	if s.gate.ShouldShed(deadlineS) {
		return metrics.RejectHopeless, false
	}
	// Cheap pre-check so a draining server refuses without queueing; the
	// authoritative check is below, after the slot is held.
	if !drainExempt && s.isDraining() {
		return metrics.RejectDraining, false
	}
	switch v, w := s.gate.TryAcquire(deadlineS); v {
	case overload.GateFull:
		return metrics.RejectOverload, false
	case overload.GateQueued:
		// A decision still queued when the input's deadline has passed
		// serves nobody.
		if d, bounded := admissionTimeout(deadlineS); bounded {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		if !s.gate.Wait(ctx, w) {
			return metrics.RejectDeadline, false
		}
	}
	// The drain recheck and the inflight bookkeeping run under one lock,
	// so Drain's "no new work after the flip" promise holds even for
	// requests that acquired their slot while the flip happened — they
	// give it back and refuse.
	s.mu.Lock()
	if s.draining && !drainExempt {
		s.mu.Unlock()
		s.gate.Release()
		return metrics.RejectDraining, false
	}
	s.inflight++
	s.mu.Unlock()
	return 0, true
}

// release returns an admitted op's gate slot and settles the drain
// bookkeeping.
func (s *Server) release() {
	s.gate.Release()
	s.mu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
}

// finish is the accounting half of a served decide or batch, run before
// the response is written so a slow reader cannot inflate what the
// controller believes the engine costs: service time (admitted → now)
// feeds the controller, sojourn (start, the moment the request was decoded
// → now) is the latency both the SLO tracker and the counters see — met
// when a request had no deadline or its sojourn fit it — and the slot goes
// back.
func (s *Server) finish(tc *metrics.TransportCounters, op metrics.Op, reqs []slot, start, admitted time.Time) {
	now := time.Now()
	s.gate.Controller().ObserveService(now.Sub(admitted))
	sojourn := now.Sub(start)
	for i := range reqs {
		d := reqs[i].deadline
		s.slo.RecordServed(reqs[i].stream, d <= 0 || sojourn.Seconds() <= d)
	}
	tc.RecordDecides(op, len(reqs), sojourn)
	s.release()
}

// sleepServiceDelay applies the configured artificial service latency
// (overload rehearsal only; see Config.ServiceDelay).
func (s *Server) sleepServiceDelay() {
	if s.serviceDelay > 0 {
		time.Sleep(s.serviceDelay)
	}
}

// decide serves one decision. start is when the transport decoded the
// request. (A binwire connection does not call this: it runs begin as it
// decodes each frame of a burst and finish after the burst's one engine
// crossing, before it writes anything — see binConn.run.)
func (s *Server) decide(ctx context.Context, tc *metrics.TransportCounters, start time.Time, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, reject) {
	one := [1]slot{{stream, spec.Deadline}}
	if rej := s.begin(ctx, tc, metrics.OpDecide, one[:]); rej.refused() {
		return alert.Decision{}, alert.Estimate{}, rej
	}
	admitted := time.Now()
	s.sleepServiceDelay()
	d, est := s.alert.Decide(stream, spec)
	s.finish(tc, metrics.OpDecide, one[:], start, admitted)
	return d, est, reject{}
}

// batch is a client-sent batch on its way through the pipeline: the decides
// in request order in an engine burst, and their slots.
type batch struct {
	burst *alert.ServerBurst
	slots []slot
}

// add appends one decide to the batch.
func (b *batch) add(stream int, spec alert.Spec) {
	b.burst.Decide(stream, spec)
	b.slots = append(b.slots, slot{stream, spec.Deadline})
}

// reset empties the batch, keeping its memory.
func (b *batch) reset() {
	b.burst.Reset()
	b.slots = b.slots[:0]
}

// decideBatch serves a client-sent batch whole: one admission, one burst,
// all-or-nothing. On a zero reject b.burst holds the results in request
// order, for the codec to encode in place.
func (s *Server) decideBatch(ctx context.Context, tc *metrics.TransportCounters, start time.Time, b *batch) reject {
	if rej := s.begin(ctx, tc, metrics.OpBatch, b.slots); rej.refused() {
		return rej
	}
	admitted := time.Now()
	s.sleepServiceDelay()
	b.burst.Run()
	s.finish(tc, metrics.OpBatch, b.slots, start, admitted)
	return reject{}
}

// checkFeedback refuses, before admission, an observe whose decision names a
// model or cap outside the served candidate set: the indices come off the
// wire and index the profile table.
func (s *Server) checkFeedback(tc *metrics.TransportCounters, fb alert.Feedback) reject {
	if err := s.alert.CheckFeedback(fb); err != nil {
		return badInput(tc, err.Error())
	}
	return reject{}
}

// observe folds one feedback into its stream (the HTTP path; a binwire
// connection holds its observes for the burst, the same check → begin →
// serve → release around a shared engine crossing). Observes are
// deadline-free, so they are never SLO-shed; the enqueue happens before
// this returns — so before the transport acks — which is what makes a
// client that round-trips observe → decide on one stream FIFO-ordered
// exactly like the in-process path.
func (s *Server) observe(ctx context.Context, tc *metrics.TransportCounters, stream int, fb alert.Feedback) reject {
	if rej := s.checkFeedback(tc, fb); rej.refused() {
		return rej
	}
	one := [1]slot{{stream: stream}}
	if rej := s.begin(ctx, tc, metrics.OpObserve, one[:]); rej.refused() {
		return rej
	}
	defer s.release()
	if err := s.alert.Observe(stream, fb); err != nil {
		return badInput(tc, err.Error())
	}
	tc.RecordOp(metrics.OpObserve)
	return reject{}
}

// evict drops one stream's session.
func (s *Server) evict(ctx context.Context, tc *metrics.TransportCounters, stream int) reject {
	if rej := s.begin(ctx, tc, metrics.OpEvict, nil); rej.refused() {
		return rej
	}
	defer s.release()
	s.alert.EvictStream(stream)
	tc.RecordOp(metrics.OpEvict)
	return reject{}
}

// snapshot serves OpExport (drain the stream, snapshot its session, remove
// it) and OpCheckpoint (snapshot it in place), returning the canonical
// binary encoding and its format version. Export is admission-gated but
// drain-exempt. Checkpoint — the periodic-backup read behind crash
// recovery — bypasses the gate entirely, like the stats reads: it mutates
// nothing and must keep answering under overload and drain.
func (s *Server) snapshot(ctx context.Context, tc *metrics.TransportCounters, op metrics.Op, stream int) ([]byte, int, reject) {
	var snap alert.SessionSnapshot
	var ok bool
	if op == metrics.OpExport {
		if rej := s.begin(ctx, tc, op, nil); rej.refused() {
			return nil, 0, rej
		}
		defer s.release()
		snap, ok = s.alert.ExportStream(stream)
	} else {
		snap, ok = s.alert.SnapshotStream(stream)
	}
	if !ok {
		return nil, 0, reject{status: http.StatusNotFound, msg: fmt.Sprintf("stream %d has no session", stream)}
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return nil, 0, reject{status: http.StatusInternalServerError, msg: err.Error()}
	}
	tc.RecordOp(op)
	return blob, int(snap.Version), reject{}
}

// decodeSnapshot parses a session snapshot's canonical binary encoding as
// it arrives in an import or replica body.
func decodeSnapshot(tc *metrics.TransportCounters, blob []byte) (alert.SessionSnapshot, reject) {
	var snap alert.SessionSnapshot
	if err := snap.UnmarshalBinary(blob); err != nil {
		return snap, badInput(tc, err.Error())
	}
	return snap, reject{}
}

// importStream restores an exported session under the given id. Unlike
// export it is NOT drain-exempt.
func (s *Server) importStream(ctx context.Context, tc *metrics.TransportCounters, stream int, blob []byte) reject {
	snap, rej := decodeSnapshot(tc, blob)
	if rej.refused() {
		return rej
	}
	if rej := s.begin(ctx, tc, metrics.OpImport, nil); rej.refused() {
		return rej
	}
	defer s.release()
	if err := s.alert.ImportStream(stream, snap); err != nil {
		// A live target session is the caller racing itself (or another
		// migrator); the conflict tells it the stream is already served
		// here.
		return reject{status: http.StatusConflict, msg: err.Error()}
	}
	// Announce ownership before answering: when the import reports
	// success, every reachable peer has either evicted its staler copy of
	// the stream or outranked us (in which case our import is gone and the
	// caller gets the conflict). This is what keeps a migration and a
	// concurrent failover restore from forking the stream.
	if s.recovery != nil && s.recovery.AnnounceImport(stream, snap.Decisions) {
		return reject{status: http.StatusConflict,
			msg: fmt.Sprintf("stream %d: a peer serves a fresher session; import evicted", stream)}
	}
	tc.RecordOp(metrics.OpImport)
	return reject{}
}

// retryHint resolves the Retry-After an overload rejection carries: the
// controller's live drain estimate when the gate is adaptive, the
// configured static hint otherwise — clamped in both cases to the
// request's remaining deadline headroom when it has one, because hinting a
// retry after the deadline has passed is useless. Floor 1ms so the hint
// stays a hint.
func (s *Server) retryHint(deadlineS float64) time.Duration {
	hint := s.retryAfter
	if s.adaptive {
		hint = s.gate.RetryAfter()
	}
	if d, ok := admissionTimeout(deadlineS); ok && d < hint {
		hint = d
		if hint < time.Millisecond {
			hint = time.Millisecond
		}
	}
	return hint
}

// admissionTimeout converts a Spec deadline in seconds to an admission
// context timeout. ok is false when the deadline imposes no bound: zero,
// negative, or too large to represent as a time.Duration (the naive
// float64→int64 conversion of a huge product is implementation-defined,
// so an absurdly patient request must not come out already expired).
func admissionTimeout(seconds float64) (time.Duration, bool) {
	if seconds <= 0 {
		return 0, false
	}
	ns := seconds * float64(time.Second)
	// Inverted comparison so NaN (all comparisons false) lands in the
	// no-bound branch instead of an implementation-defined conversion.
	if !(ns < float64(math.MaxInt64)) {
		return 0, false
	}
	return time.Duration(ns), true
}
