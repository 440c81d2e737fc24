package netserve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/metrics"
)

// The tests in this file pin the op pipeline through BOTH codecs from one
// table each: an op refused or served for a given server condition must
// come back with the same status, the same hint, and move the same ledgers
// whether it arrived as JSON or as a binwire frame. Batches and the stream
// ops (evict, export, import) have no binwire form and run over
// HTTP only.

// call is one data-plane op as a test describes it.
type call struct {
	op     metrics.Op
	stream int
	// deadlineS is the Spec deadline of a decide, and of the first member
	// of a batch (a batch is {stream, deadlineS} + {stream+1, 30s}).
	deadlineS float64
	blob      []byte          // import
	fb        *alert.Feedback // observe; nil sends a plain 10ms measurement
}

func (c call) feedback() alert.Feedback {
	if c.fb != nil {
		return *c.fb
	}
	return alert.Feedback{Latency: 0.01, CompletedStage: -1}
}

func (c call) reqs() []alert.BatchRequest {
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: c.deadlineS, AccuracyGoal: 0.9}
	reqs := []alert.BatchRequest{{Stream: c.stream, Spec: spec}}
	if c.op == metrics.OpBatch {
		spec.Deadline = 30
		reqs = append(reqs, alert.BatchRequest{Stream: c.stream + 1, Spec: spec})
	}
	return reqs
}

// wire drives ops through one codec and reports what came back in
// transport-neutral terms: the reject's status (0 = served), its
// retry_after_ms, its message.
type wire interface {
	do(t *testing.T, c call) (status int, hintMs int64, msg string)
	// counters are this transport's shared counters and bad-input count.
	counters() (metrics.TransportSnapshot, int64)
}

type httpWire struct{ front *Server }

func (h httpWire) counters() (metrics.TransportSnapshot, int64) {
	s := h.front.NetStats()
	return s.TransportSnapshot, s.BadRequests
}

func (h httpWire) do(t *testing.T, c call) (int, int64, string) {
	t.Helper()
	method, path, body := http.MethodGet, fmt.Sprintf("/v1/streams/%d", c.stream), any(nil)
	reqs := c.reqs()
	switch c.op {
	case metrics.OpDecide:
		method, path, body = http.MethodPost, "/v1/decide", DecideRequest{Stream: c.stream, Spec: FromSpec(reqs[0].Spec)}
	case metrics.OpBatch:
		var br BatchRequest
		for _, r := range reqs {
			br.Requests = append(br.Requests, DecideRequest{Stream: r.Stream, Spec: FromSpec(r.Spec)})
		}
		method, path, body = http.MethodPost, "/v1/decide-batch", br
	case metrics.OpObserve:
		method, path, body = http.MethodPost, "/v1/observe", ObserveRequest{Stream: c.stream, Feedback: FromFeedback(c.feedback())}
	case metrics.OpEvict:
		method = http.MethodDelete
	case metrics.OpExport:
		path += "/snapshot"
	case metrics.OpImport:
		method, body = http.MethodPut, ImportRequest{SnapshotB64: base64.StdEncoding.EncodeToString(c.blob)}
	}
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.front.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	if rec.Code < 300 {
		return 0, 0, ""
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%s %s: status %d with a non-ErrorResponse body %q", method, path, rec.Code, rec.Body.String())
	}
	// The header is the body's hint in whole seconds, rounded up; both or
	// neither.
	wantHeader := ""
	if e.RetryAfterMs > 0 {
		wantHeader = fmt.Sprint((e.RetryAfterMs + 999) / 1000)
	}
	if got := rec.Header().Get("Retry-After"); got != wantHeader {
		t.Errorf("%s %s: Retry-After header %q beside retry_after_ms %d, want %q", method, path, got, e.RetryAfterMs, wantHeader)
	}
	return rec.Code, e.RetryAfterMs, e.Error
}

type binWire struct {
	bs binFront
	rc *rawConn
}

func (b binWire) counters() (metrics.TransportSnapshot, int64) {
	s := b.bs.BinStats()
	return s.TransportSnapshot, s.BadFrames
}

func (b binWire) do(t *testing.T, c call) (int, int64, string) {
	t.Helper()
	rc := b.rc
	rc.id++
	var frame []byte
	var want binwire.MsgType
	switch c.op {
	case metrics.OpDecide:
		frame, want = binwire.AppendDecide(nil, rc.id, c.stream, c.reqs()[0].Spec), binwire.MsgDecideResp
	case metrics.OpObserve:
		frame, want = binwire.AppendObserve(nil, rc.id, c.stream, c.feedback()), binwire.MsgObserveResp
	default:
		t.Fatalf("op %d has no binwire form", c.op)
	}
	rc.send(frame)
	f := rc.next()
	if f.ID != rc.id {
		t.Fatalf("frame id %d, want %d", f.ID, rc.id)
	}
	if f.Type != binwire.MsgError {
		if f.Type != want {
			t.Fatalf("served frame type %d, want %d", f.Type, want)
		}
		return 0, 0, ""
	}
	code, ms, msg, err := binwire.DecodeError(f.Body)
	if err != nil {
		t.Fatal(err)
	}
	return int(code), ms, msg
}

// httpOnly runs fn over HTTP against a fresh server built from cfg, for
// the ops binwire does not carry.
func httpOnly(t *testing.T, cfg Config, fn func(t *testing.T, front *Server, w wire)) {
	t.Run("http", func(t *testing.T) {
		front := New(testAlertServer(t, 1), cfg)
		fn(t, front, httpWire{front})
	})
}

// bothWires runs fn once per codec, each against its own fresh server
// built from cfg.
func bothWires(t *testing.T, cfg Config, fn func(t *testing.T, front *Server, w wire)) {
	httpOnly(t, cfg, fn)
	t.Run("binwire", func(t *testing.T) {
		front := New(testAlertServer(t, 1), cfg)
		bs := startBinary(t, front)
		fn(t, front, binWire{bs, dialBinary(t, bs.Addr())})
	})
}

// TestBadFeedbackRefused: the model and cap a feedback names come off the
// wire and index the profile table, so an out-of-range one is bad input —
// refused with 400 before admission, on both codecs, never an index panic
// (on binwire that is a panic on the connection's goroutine: the process
// dies). The server then keeps serving, on a new connection too.
func TestBadFeedbackRefused(t *testing.T) {
	bothWires(t, Config{}, func(t *testing.T, front *Server, w wire) {
		_, bad0 := w.counters()
		decisions := []alert.Decision{{Model: 9999}, {Model: -1}, {Cap: 9999}, {Cap: -1}}
		for _, d := range decisions {
			status, hint, msg := w.do(t, call{op: metrics.OpObserve, stream: 7, fb: &alert.Feedback{Decision: d, Latency: 0.1}})
			if status != http.StatusBadRequest || hint != 0 || !strings.Contains(msg, "feedback for model") {
				t.Errorf("observe of %+v = %d (hint %d) %q, want a 400 naming the bad indices", d, status, hint, msg)
			}
		}
		snap, bad := w.counters()
		if bad-bad0 != int64(len(decisions)) || snap.Observes != 0 {
			t.Errorf("bad_input moved by %d with %d observes served, want %d and 0", bad-bad0, snap.Observes, len(decisions))
		}
		if ov := front.OverloadStats(); ov.Inflight != 0 || ov.Queued != 0 {
			t.Errorf("gate holds %d inflight, %d queued after refused observes, want 0", ov.Inflight, ov.Queued)
		}
		if front.alert.Streams() != 0 {
			t.Errorf("a refused observe created a session")
		}
		if bw, ok := w.(binWire); ok {
			w = binWire{bw.bs, dialBinary(t, bw.bs.Addr())}
		}
		for _, op := range []metrics.Op{metrics.OpDecide, metrics.OpObserve} {
			if status, _, msg := w.do(t, call{op: op, stream: 7, deadlineS: 0.2}); status != 0 {
				t.Errorf("op %d after the refused observes = %d %q, want served", op, status, msg)
			}
		}
	})
}

// holdRecovery is a Recovery whose only live method is the restoring hold.
type holdRecovery struct {
	Recovery
	stream int
}

func (h holdRecovery) Restoring(stream int) bool { return stream == h.stream }

// TestRejectMatrix is the one table of (server condition × op) → (status,
// hint, counter delta), run through both codecs — the batch and stream-op
// rows through HTTP only, the one wire those ops have. Every row checks the
// op's whole ledger: exactly one shared counter moves (the op's when
// served, the reject class's when refused — on the transport the op
// arrived on), and the gate's shed-by-class counter moves with it.
func TestRejectMatrix(t *testing.T) {
	const (
		served   = 0
		noClass  = metrics.Reject(255) // refused, but not by the gate or a hold
		anyHint  = -1                  // retryable: some hint >= 1ms
		livePeer = 40                  // a stream with a session, set up per condition
	)
	decide, observe, batch := metrics.OpDecide, metrics.OpObserve, metrics.OpBatch
	evict, export, imp := metrics.OpEvict, metrics.OpExport, metrics.OpImport
	type row struct {
		call
		status int
		class  metrics.Reject
		hintMs int64
		msg    string
	}
	// donor is a valid session blob for import rows.
	donorSrv := testAlertServer(t, 1)
	donorSrv.Decide(1, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
	donorSnap, _ := donorSrv.SnapshotStream(1)
	donor, err := donorSnap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	conditions := []struct {
		name string
		cfg  Config
		// arrange puts the server into the condition; the returned func
		// undoes what would otherwise outlive the subtest.
		arrange func(t *testing.T, front *Server) (undo func())
		rows    []row
	}{
		{
			name:    "restoring",
			cfg:     Config{RetryAfter: 40 * time.Millisecond, Recovery: holdRecovery{stream: 7}},
			arrange: func(*testing.T, *Server) func() { return func() {} },
			rows: []row{
				{call{op: decide, stream: 7, deadlineS: 0.2}, 503, metrics.RejectRestoring, 40, "restoring"},
				{call{op: observe, stream: 7}, 503, metrics.RejectRestoring, 40, "restoring"},
				// A batch touching a restoring stream sheds whole.
				{call{op: batch, stream: 6, deadlineS: 0.2}, 503, metrics.RejectRestoring, 40, "restoring"},
				{call{op: decide, stream: 8, deadlineS: 0.2}, served, 0, 0, ""},
			},
		},
		{
			// The one slot held and the one queue place taken: every gated
			// op bounces with the configured hint (no service time is
			// measured yet, so there is no drain estimate), clamped to a
			// decide's deadline headroom.
			name: "queue full",
			cfg:  Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 25 * time.Millisecond},
			arrange: func(t *testing.T, front *Server) func() {
				front.alert.Decide(livePeer, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
				front.HoldTokenForTest()
				if _, w := front.gate.TryAcquire(0); w == nil {
					t.Fatal("could not park a waiter in the queue")
				}
				// Releasing the held slot grants it to the parked waiter;
				// the second release returns that one.
				return func() { front.ReleaseTokenForTest(); front.ReleaseTokenForTest() }
			},
			rows: []row{
				{call{op: decide, stream: 5, deadlineS: 0.2}, 429, metrics.RejectOverload, 25, "queue full"},
				{call{op: decide, stream: 5, deadlineS: 0.01}, 429, metrics.RejectOverload, 10, "queue full"},
				{call{op: batch, stream: 5, deadlineS: 0.2}, 429, metrics.RejectOverload, 25, "queue full"},
				{call{op: observe, stream: 5}, 429, metrics.RejectOverload, 25, "queue full"},
				{call{op: evict, stream: livePeer}, 429, metrics.RejectOverload, 25, "queue full"},
				{call{op: export, stream: livePeer}, 429, metrics.RejectOverload, 25, "queue full"},
				{call{op: imp, stream: 9, blob: donor}, 429, metrics.RejectOverload, 25, "queue full"},
			},
		},
		{
			name: "deadline expires in queue",
			cfg:  Config{MaxInflight: 1, MaxQueue: 4, RetryAfter: 25 * time.Millisecond},
			arrange: func(t *testing.T, front *Server) func() {
				front.HoldTokenForTest()
				return front.ReleaseTokenForTest
			},
			rows: []row{
				{call{op: decide, stream: 5, deadlineS: 0.02}, 429, metrics.RejectDeadline, 25, "expired"},
				{call{op: batch, stream: 5, deadlineS: 0.02}, 429, metrics.RejectDeadline, 25, "expired"},
			},
		},
		{
			// A draining node sheds state: everything mutating is refused,
			// imports included, but exports — how its sessions leave —
			// still serve.
			name: "draining",
			cfg:  Config{RetryAfter: 40 * time.Millisecond},
			arrange: func(t *testing.T, front *Server) func() {
				front.alert.Decide(livePeer, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
				if err := front.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return func() {}
			},
			rows: []row{
				{call{op: decide, stream: 5, deadlineS: 0.2}, 503, metrics.RejectDraining, 40, "draining"},
				{call{op: batch, stream: 5, deadlineS: 0.2}, 503, metrics.RejectDraining, 40, "draining"},
				{call{op: observe, stream: 5}, 503, metrics.RejectDraining, 40, "draining"},
				{call{op: evict, stream: livePeer}, 503, metrics.RejectDraining, 40, "draining"},
				{call{op: imp, stream: 9, blob: donor}, 503, metrics.RejectDraining, 40, "draining"},
				{call{op: export, stream: livePeer}, served, 0, 0, ""},
				{call{op: export, stream: livePeer}, 404, noClass, 0, "no session"},
			},
		},
		{
			// A configured hint below the wire's 1ms resolution must not come
			// out as 0, which both clients read as "no hint".
			name: "draining, sub-millisecond hint",
			cfg:  Config{RetryAfter: 500 * time.Microsecond},
			arrange: func(t *testing.T, front *Server) func() {
				if err := front.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return func() {}
			},
			rows: []row{
				{call{op: decide, stream: 5, deadlineS: 0.2}, 503, metrics.RejectDraining, 1, "draining"},
				{call{op: observe, stream: 5}, 503, metrics.RejectDraining, 1, "draining"},
			},
		},
		{
			name: "healthy",
			cfg:  Config{},
			arrange: func(t *testing.T, front *Server) func() {
				front.alert.Decide(livePeer, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
				return func() {}
			},
			rows: []row{
				{call{op: decide, stream: 5, deadlineS: 0.2}, served, 0, 0, ""},
				{call{op: batch, stream: 5, deadlineS: 0.2}, served, 0, 0, ""},
				{call{op: observe, stream: 5}, served, 0, 0, ""},
				{call{op: export, stream: 99}, 404, noClass, 0, "no session"},
				{call{op: imp, stream: livePeer, blob: donor}, 409, noClass, 0, ""},
				{call{op: imp, stream: 9, blob: []byte("junk")}, 400, noClass, 0, ""},
				{call{op: imp, stream: 9, blob: donor}, served, 0, 0, ""},
				{call{op: evict, stream: 9}, served, 0, 0, ""},
			},
		},
	}

	for _, cond := range conditions {
		cond := cond
		t.Run(cond.name, func(t *testing.T) {
			bothWires(t, cond.cfg, func(t *testing.T, front *Server, w wire) {
				defer cond.arrange(t, front)()
				other := wire(httpWire{front})
				_, isHTTP := w.(httpWire)
				if isHTTP {
					other = nil // w is the HTTP wire itself
				}
				for _, r := range cond.rows {
					if !isHTTP && r.op != decide && r.op != observe {
						continue // a batch or a stream op: HTTP is its one wire
					}
					name := fmt.Sprintf("op %d stream %d", r.op, r.stream)
					want, wantBad := w.counters()
					var otherBefore metrics.TransportSnapshot
					if other != nil {
						otherBefore, _ = other.counters()
					}
					ovBefore := front.OverloadStats()

					begin := time.Now()
					status, hintMs, msg := w.do(t, r.call)
					if took := time.Since(begin); took > 2*time.Second {
						t.Errorf("%s: answered after %s, want prompt", name, took)
					}
					if status != r.status {
						t.Fatalf("%s: status %d (%q), want %d", name, status, msg, r.status)
					}
					if r.hintMs == anyHint && hintMs < 1 || r.hintMs != anyHint && hintMs != r.hintMs {
						t.Errorf("%s: retry_after_ms = %d, want %d (-1 = any >= 1)", name, hintMs, r.hintMs)
					}
					if status != served && (msg == "" || !strings.Contains(msg, r.msg)) {
						t.Errorf("%s: message %q, want one containing %q", name, msg, r.msg)
					}

					// Exactly one shared counter moves, on this transport.
					nReqs := int64(len(r.reqs()))
					switch {
					case status == served:
						*opCounter(&want, r.op)++
						if r.op == batch {
							want.BatchDecisions += nReqs
						}
					case r.class != noClass:
						*rejectCounter(&want, r.class)++
					case status == http.StatusBadRequest:
						wantBad++
					}
					got, gotBad := w.counters()
					if got != want || gotBad != wantBad {
						t.Errorf("%s: counters\n got %+v bad=%d\nwant %+v bad=%d", name, got, gotBad, want, wantBad)
					}
					if other != nil {
						if after, _ := other.counters(); after != otherBefore {
							t.Errorf("%s: the other transport's counters moved: %+v -> %+v", name, otherBefore, after)
						}
					}

					// The gate's shed ledger moves with the reject class.
					wantOv := ovBefore
					if status != served {
						switch r.class {
						case metrics.RejectOverload:
							wantOv.ShedOverload++
						case metrics.RejectDeadline:
							wantOv.ShedDeadline++
						case metrics.RejectDraining:
							wantOv.ShedDraining++
						}
					}
					ov := front.OverloadStats()
					if ov.ShedOverload != wantOv.ShedOverload ||
						ov.ShedDeadline != wantOv.ShedDeadline || ov.ShedDraining != wantOv.ShedDraining {
						t.Errorf("%s: shed ledger %+v, want %+v", name, ov, wantOv)
					}
				}
			})
		})
	}
}

func opCounter(s *metrics.TransportSnapshot, op metrics.Op) *int64 {
	return map[metrics.Op]*int64{
		metrics.OpDecide: &s.Decides, metrics.OpObserve: &s.Observes, metrics.OpBatch: &s.Batches,
		metrics.OpEvict: &s.Evictions, metrics.OpExport: &s.Exports, metrics.OpImport: &s.Imports,
	}[op]
}

func rejectCounter(s *metrics.TransportSnapshot, class metrics.Reject) *int64 {
	return map[metrics.Reject]*int64{
		metrics.RejectOverload: &s.RejectedOverload, metrics.RejectDeadline: &s.RejectedDeadline,
		metrics.RejectDraining: &s.RejectedDraining, metrics.RejectRestoring: &s.RejectedRestoring,
	}[class]
}

// TestGateWaitCountsAgainstSLO: the latency a transport records for a
// decide or batch — the time a client's deadline is measured against —
// includes its wait at the gate, on every transport that carries it (a
// batch has one, HTTP): the clock starts when the request is decoded, not
// when it clears the gate.
func TestGateWaitCountsAgainstSLO(t *testing.T) {
	const (
		deadlineS = 0.6
		gateWait  = 350 * time.Millisecond
		service   = 300 * time.Millisecond
	)
	for _, op := range []metrics.Op{metrics.OpDecide, metrics.OpBatch} {
		op := op
		wires := bothWires
		if op == metrics.OpBatch {
			wires = httpOnly
		}
		t.Run(fmt.Sprintf("op %d", op), func(t *testing.T) {
			wires(t, Config{MaxInflight: 1, MaxQueue: 4, ServiceDelay: service}, func(t *testing.T, front *Server, w wire) {
				t.Parallel()
				front.HoldTokenForTest()
				go func() {
					// waitQueued calls t.Fatal, so poll by hand off the test
					// goroutine; the release happens either way.
					for i := 0; i < 5000; i++ {
						if _, queued := front.gate.Occupancy(); queued > 0 {
							break
						}
						time.Sleep(time.Millisecond)
					}
					time.Sleep(gateWait)
					front.ReleaseTokenForTest()
				}()
				if status, _, msg := w.do(t, call{op: op, stream: 5, deadlineS: deadlineS}); status != 0 {
					t.Fatalf("status %d (%q), want served", status, msg)
				}
				if got := maxLatency(w); got < gateWait+service {
					t.Errorf("max latency %s, want >= %s (waited >= %s, served >= %s, deadline %gs)",
						got, gateWait+service, gateWait, service, deadlineS)
				}
			})
		})
	}
}

// maxLatency is the high-water mark of the decide and batch latencies the
// wire's transport recorded.
func maxLatency(w wire) time.Duration {
	if bw, ok := w.(binWire); ok {
		return bw.bs.BinStats().MaxDecideLatency
	}
	return w.(httpWire).front.NetStats().MaxRequestLatency
}

// slowWriteListener hands out connections whose every Write stalls — a
// reader that drains its socket slowly, as the server sees it.
type slowWriteListener struct {
	net.Listener
	stall time.Duration
}

func (l slowWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{c, l.stall}, nil
}

type slowWriteConn struct {
	net.Conn
	stall time.Duration
}

func (c slowWriteConn) Write(b []byte) (int, error) {
	time.Sleep(c.stall)
	return c.Conn.Write(b)
}

// TestSlowReaderDoesNotInflateService: service time is measured before the
// response write, so one slow reader cannot raise the controller's service
// EWMA (and with it the gate's ×0.7 inflight shrink).
// Decides are sent one at a time, so each is a singleton flush — the path
// that measured after the write at the parent commit.
func TestSlowReaderDoesNotInflateService(t *testing.T) {
	const stall = 50 * time.Millisecond
	front := New(testAlertServer(t, 1), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinary(front, slowWriteListener{ln, stall}, BinaryConfig{})
	go bs.Serve()
	t.Cleanup(func() { bs.Close() })

	rc := dialRaw(t, bs.Addr())
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	for i := 0; i < 4; i++ {
		rc.decide(1, spec)
	}
	if ewma := front.OverloadStats().ServiceEWMA; ewma <= 0 || ewma >= stall {
		t.Errorf("service EWMA = %s, want positive and below the %s write stall", ewma, stall)
	}
	// The same holds for the transport's latency pair: it stops at the
	// accounting, not the write.
	if snap := bs.BinStats(); snap.MaxDecideLatency >= stall {
		t.Errorf("max decide latency %s includes the %s write stall", snap.MaxDecideLatency, stall)
	}
}
