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
// decide, observe, batch, export, import, evict — runs
//
//	restoring hold → admit → serve → account → release
//
// here, exactly once, and comes back as a typed result or a reject. The
// HTTP handlers (netserve.go) and the binwire read loop (binary.go, which
// carries decide and observe) only decode a request into a call and
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

// slot is what the restoring hold and admission read of one request —
// whose it is and the deadline it must meet (0: none). The request itself
// lives in the engine burst; this is the pipeline's view of it.
type slot struct {
	stream   int
	deadline float64
}

// hold is the restoring hold of one op over reqs, the requests it carries
// (nil for stream ops, which have neither stream hold nor deadline). It
// sheds the op before any state is touched if a request's stream is
// restoring after a failover, so nothing is lost — the client retries onto
// the finished restore — and otherwise returns the op's admission
// deadline: its tightest member's, because if that one can no longer be
// served in time the whole batch is late. A batch touching a restoring
// stream sheds whole: serving the rest while skipping one slot would break
// the "results in request order" contract.
func (s *Server) hold(tc *metrics.TransportCounters, reqs []slot) (deadline float64, rej reject) {
	for i := range reqs {
		if s.recovery != nil && s.recovery.Restoring(reqs[i].stream) {
			tc.RecordReject(metrics.RejectRestoring)
			return 0, reject{http.StatusServiceUnavailable, s.retryAfter,
				fmt.Sprintf("stream %d is restoring after failover", reqs[i].stream)}
		}
		if d := reqs[i].deadline; d > 0 && (deadline == 0 || d < deadline) {
			deadline = d
		}
	}
	return deadline, reject{}
}

// begin is the admission half of one gated op: the restoring hold, then
// admit with n = 1. On a zero reject the op holds a gate slot and MUST end
// in release — from that point it is accepted and will be served no matter
// what. ctx bounds the wait at the gate together with the deadline; it is
// only consulted, and a deadline context only built, when the request
// actually queues.
func (s *Server) begin(ctx context.Context, tc *metrics.TransportCounters, op metrics.Op, reqs []slot) reject {
	deadline, rej := s.hold(tc, reqs)
	if rej.refused() {
		return rej
	}
	// Export is how sessions leave a draining node, so refusing it would
	// deadlock a graceful hand-off (imports stay refused — a draining node
	// must shed state, not accept it).
	one := [1]float64{deadline}
	_, _, rej = s.admit(ctx, tc, op == metrics.OpExport, one[:])
	return rej
}

// admit passes requests through the gate in arrival order, one per entry
// of deadlines (each request's admission deadline, 0 for none), with one
// gate call, one drain check and one s.mu section for all of them. It
// admits the longest prefix that fits without queueing and returns its
// length n: the caller holds n slots, each of which MUST end in release.
// When nothing fits, the first request alone queues: n is 1 with waited set
// if it got its slot. n = 0 comes with the first request's reject, counted
// on tc; the rest were not looked at.
func (s *Server) admit(ctx context.Context, tc *metrics.TransportCounters, drainExempt bool, deadlines []float64) (n int, waited bool, rej reject) {
	n, waited, class := s.acquire(ctx, drainExempt, deadlines)
	if n > 0 {
		return n, waited, reject{}
	}
	// The transport's reject counter is the one ledger of a shed: the
	// gate's shed-by-class view is read off it (Server.snapshots).
	tc.RecordReject(class)
	switch class {
	case metrics.RejectOverload:
		return 0, false, reject{http.StatusTooManyRequests, s.retryHint(deadlines[0]), "admission queue full"}
	case metrics.RejectDeadline:
		// The deadline is spent, so there is nothing to clamp to.
		return 0, false, reject{http.StatusTooManyRequests, s.retryHint(0), "deadline expired before admission"}
	default:
		return 0, false, reject{http.StatusServiceUnavailable, s.retryAfter, "server draining"}
	}
}

// acquire is admit's gate and drain half. n > 0 means the caller holds n
// slots; otherwise class says why the first request was refused.
func (s *Server) acquire(ctx context.Context, drainExempt bool, deadlines []float64) (n int, waited bool, class metrics.Reject) {
	// Lock-free pre-check so a draining server refuses without queueing;
	// the authoritative check is below, after the slots are held.
	if !drainExempt && s.draining.Load() {
		return 0, false, metrics.RejectDraining
	}
	n, v, w := s.gate.TryAcquireN(deadlines...)
	switch v {
	case overload.GateFull:
		return 0, false, metrics.RejectOverload
	case overload.GateQueued:
		// A decision still queued when the input's deadline has passed
		// serves nobody.
		if d, bounded := admissionTimeout(deadlines[0]); bounded {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		if !s.gate.Wait(ctx, w) {
			return 0, false, metrics.RejectDeadline
		}
		n, waited = 1, true
	}
	// The drain recheck and the inflight bookkeeping run under one lock,
	// so Drain's "no new work after the flip" promise holds even for
	// requests that acquired their slots while the flip happened — they
	// give them back and refuse.
	s.mu.Lock()
	if !drainExempt && s.draining.Load() {
		s.mu.Unlock()
		s.gate.ReleaseN(n)
		return 0, false, metrics.RejectDraining
	}
	s.inflight += n
	s.mu.Unlock()
	return n, waited, 0
}

// release returns n admitted ops' gate slots and settles the drain
// bookkeeping, with one gate call and one s.mu section.
func (s *Server) release(n int) {
	s.gate.ReleaseN(n)
	s.mu.Lock()
	s.inflight -= n
	if s.draining.Load() && s.inflight == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
}

// finish is the accounting half of served decides, run before the
// responses are written so a slow reader cannot inflate what the
// controller believes the engine costs. It covers n decides served by one
// engine crossing (op OpDecide) or one batch of n (OpBatch), with one
// clock read: service time (admitted → now; one sample per request) feeds
// the controller, whose control loop ticks at now, and sojourn (start,
// when the request — or the burst it arrived in — was decoded → now) is
// the latency the counters see. It returns the instant it read. The slots
// go back with release.
func (s *Server) finish(tc *metrics.TransportCounters, op metrics.Op, n int, start, admitted time.Time) time.Time {
	now := time.Now()
	reqs := n
	if op == metrics.OpBatch {
		reqs = 1
	}
	ctrl := s.gate.Controller()
	ctrl.ObserveService(now.Sub(admitted), reqs)
	ctrl.Tick(now)
	tc.RecordDecides(op, n, now.Sub(start))
	return now
}

// sleepServiceDelay applies the configured artificial service latency
// (overload rehearsal only; see Config.ServiceDelay).
func (s *Server) sleepServiceDelay() {
	if s.serviceDelay > 0 {
		time.Sleep(s.serviceDelay)
	}
}

// decide serves one decision. start is when the transport decoded the
// request. (A binwire connection does not call this: it admits a burst's
// decides and observes together at the burst boundary and settles them
// after the burst's one engine crossing, before it writes anything — see
// binConn.admit and binConn.run.)
func (s *Server) decide(ctx context.Context, tc *metrics.TransportCounters, start time.Time, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, reject) {
	one := [1]slot{{stream, spec.Deadline}}
	if rej := s.begin(ctx, tc, metrics.OpDecide, one[:]); rej.refused() {
		return alert.Decision{}, alert.Estimate{}, rej
	}
	admitted := time.Now()
	s.sleepServiceDelay()
	d, est := s.alert.Decide(stream, spec)
	s.finish(tc, metrics.OpDecide, 1, start, admitted)
	s.release(1)
	return d, est, reject{}
}

// batch is an HTTP decide-batch on its way through the pipeline: the decides
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
	s.finish(tc, metrics.OpBatch, len(b.slots), start, admitted)
	s.release(1)
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
// connection holds its observes for the burst, the same check → hold →
// admit → serve → release around a shared engine crossing). The enqueue
// happens before this returns — so before the transport acks — which is
// what makes a client that round-trips observe → decide on one stream
// FIFO-ordered exactly like the in-process path.
func (s *Server) observe(ctx context.Context, tc *metrics.TransportCounters, stream int, fb alert.Feedback) reject {
	if rej := s.checkFeedback(tc, fb); rej.refused() {
		return rej
	}
	one := [1]slot{{stream: stream}}
	if rej := s.begin(ctx, tc, metrics.OpObserve, one[:]); rej.refused() {
		return rej
	}
	defer s.release(1)
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
	defer s.release(1)
	s.alert.EvictStream(stream)
	tc.RecordOp(metrics.OpEvict)
	return reject{}
}

// export drains the stream, snapshots its session and removes it,
// returning the canonical binary encoding and its format version. It is
// admission-gated but drain-exempt.
func (s *Server) export(ctx context.Context, tc *metrics.TransportCounters, stream int) ([]byte, int, reject) {
	if rej := s.begin(ctx, tc, metrics.OpExport, nil); rej.refused() {
		return nil, 0, rej
	}
	defer s.release(1)
	snap, ok := s.alert.ExportStream(stream)
	if !ok {
		return nil, 0, reject{status: http.StatusNotFound, msg: fmt.Sprintf("stream %d has no session", stream)}
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return nil, 0, reject{status: http.StatusInternalServerError, msg: err.Error()}
	}
	tc.RecordOp(metrics.OpExport)
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
	defer s.release(1)
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
// gate's hint (Gate.RetryAfter), clamped to the request's remaining
// deadline headroom when it has one, because hinting a retry after the
// deadline has passed is useless. Floor 1ms so the hint stays a hint.
func (s *Server) retryHint(deadlineS float64) time.Duration {
	hint := s.gate.RetryAfter()
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
