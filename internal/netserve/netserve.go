// Package netserve is the network serving front end over alert.Server: the
// stream table exposed to remote clients, with the production behaviors
// the in-process path never needed — bounded admission, per-request
// deadlines, and graceful drain.
//
// # One pipeline, two codecs
//
// Every data-plane operation — decide, observe, decide-batch, and the
// stream ops export, import, evict — is implemented once, in
// ops.go, as
//
//	restoring hold → admit → serve → account → release
//
// and returns a typed result or a reject (status, Retry-After hint,
// message). Two codecs sit on top and do nothing but translate: the HTTP
// handlers in this file map JSON bodies to op calls and a reject to a
// status line + Retry-After header + JSON error body; the binwire read
// loop in binary.go maps frames to the same calls and a reject to an error
// frame whose code is that status and whose retry_after_ms is that hint.
// binwire carries only the per-input loop (decide, observe; many decides
// travel as pipelined decide frames); decide-batch and the stream ops have
// one wire, HTTP.
// What an op counts, and when its latency clock starts and stops, is
// therefore the same on both wires; each codec only says whose counters to
// move.
// binwire adds one thing of its own — a connection serves the decides and
// observes it has read as one burst — and even that enters and leaves
// through the pipeline's two halves (begin, finish). Both codecs share one
// port: a binwire connection starts as an HTTP request for GET /v1/binwire
// with "Upgrade: alert-binwire" and speaks binwire after the 101.
//
// HTTP endpoints (see wire.go for the exact JSON shapes):
//
//	POST   /v1/decide        one decision for one stream
//	POST   /v1/observe       feedback for one stream (fire-and-forget)
//	POST   /v1/decide-batch  one decision per request, request order
//	GET    /v1/stats         serve + front-end counter snapshots, node identity
//	GET    /v1/binwire       upgrade the connection to binwire (101, or 426
//	                         without "Connection: Upgrade" and "Upgrade: alert-binwire")
//	GET    /metrics          the same counters in Prometheus text format
//	GET    /v1/streams       live stream ids
//	DELETE /v1/streams/{id}  evict one stream's session
//	GET    /v1/streams/{id}/snapshot  export (snapshot + remove) a session
//	PUT    /v1/streams/{id}  import a previously exported session
//	GET    /v1/membership    the node's membership view (when enabled)
//	POST   /v1/membership    peer heartbeat; replies with the merged view
//	PUT    /v1/replicas/{id} store a peer's replicated checkpoint
//	POST   /v1/claims        resolve an ownership claim after import/restore
//
// The membership/replica/claim endpoints are the self-healing control
// plane (see internal/membership and internal/selfheal); they bypass the
// admission gate because they are what decides who should be taking load,
// and they 404 on nodes that run without membership. The binwire upgrade
// bypasses it too: the gate admits each frame the connection carries.
//
// # Admission control
//
// The in-process pool applies backpressure by blocking the submitter; a
// network server cannot block an unbounded number of connections without
// melting, so the front end bounds its exposure explicitly. At most
// MaxInflight requests are past the gate at once; up to MaxQueue more wait
// at it. A request that would exceed the queue is rejected immediately
// with 429 and a Retry-After hint, and a decide whose Spec deadline
// expires while it waits is rejected the same way (a decision that late is
// useless). Crucially, admission is all-or-nothing: once a request passes
// the gate it is always served — the pool beneath never drops work — so
// overload sheds cleanly at the edge with zero dropped accepted requests.
// Only the mutating endpoints pass the gate; the stats/streams reads stay
// ungated so monitoring keeps answering while the server is saturated or
// draining.
//
// # Ordering
//
// The per-stream FIFO guarantee of the pool extends over the wire per
// connection in the natural way: a client that waits for each response
// before its next request on a stream observes exactly the in-process
// semantics, and replays are byte-identical to driving alert.Server
// directly (cmd/alertload -addr pins this). Concurrent requests for one
// stream race at the admission gate like goroutines race at the pool.
//
// # Drain
//
// Drain flips the server into shutdown mode: new mutating requests are
// refused with 503 (clients see Retry-After and go elsewhere; reads still
// answer) while everything already admitted runs to completion.
// cmd/alertserve wires it to SIGINT/SIGTERM, then closes the binwire
// connections (Close) — http.Server.Shutdown does not track upgraded
// connections — and shuts the HTTP server down.
package netserve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/overload"
)

// Config sizes the front end. The zero value selects sensible defaults.
type Config struct {
	// MaxInflight is the admission gate's initial bound on the requests
	// concurrently past it (the mutating endpoints: decide, observe,
	// decide-batch, and stream eviction; the stats/streams reads are
	// deliberately ungated so monitoring keeps answering under overload and
	// drain); 0 means 64. The measured-delay controller (internal/overload)
	// moves the effective limit within [1/8, 4x] of it.
	MaxInflight int
	// MaxQueue is the initial bound on the requests waiting at the gate
	// beyond the inflight limit; a request arriving with the queue full is
	// rejected with 429. 0 means 2×MaxInflight. The controller moves it
	// within [1/8, 4x] as well.
	MaxQueue int
	// RetryAfter is the backoff hint attached to 503 responses, and to 429s
	// until the controller has measured service time (after that a 429
	// carries its drain estimate); 0 means 50ms.
	RetryAfter time.Duration
	// NodeID names this node in a cluster; it is echoed in GET /v1/stats so
	// routing clients can verify they reached the member they meant to.
	// Empty means a standalone node. Keep it within binwire.MaxNodeID
	// (3,991) bytes: every binwire decide reply carries it, cut to that.
	NodeID string
	// Membership, if set, serves the node's live membership view on
	// GET /v1/membership and accepts peer heartbeats on POST
	// /v1/membership. Nil keeps both endpoints 404 (a static-membership
	// node).
	Membership *membership.Agent
	// Recovery, if set, enables the self-healing control plane — replica
	// storage (PUT /v1/replicas/{id}), ownership claims (POST /v1/claims)
	// — and the restoring hold: decides/observes for a stream mid-restore
	// are shed with 503 + Retry-After instead of forking a fresh session.
	Recovery Recovery
	// ServiceDelay, when positive, adds an artificial per-decide service
	// latency. It exists for overload rehearsal — cmd/alertload's
	// -overload-drill and the CI overload smoke use it to drive real
	// queueing at the gate with wall-clock-meaningful deadlines. Zero (the
	// default) in production.
	ServiceDelay time.Duration
}

func (c Config) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 64
	}
	return c.MaxInflight
}

func (c Config) maxQueue() int {
	if c.MaxQueue <= 0 {
		return 2 * c.maxInflight()
	}
	return c.MaxQueue
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return 50 * time.Millisecond
	}
	return c.RetryAfter
}

// Server is the front end: the op core (ops.go), its HTTP codec and its
// binwire codec, which HTTP connections reach by upgrading. It implements
// http.Handler; mount it on any mux or serve it directly, and Close it after
// Drain. The underlying alert.Server is owned by the caller and must
// outlive the front end.
type Server struct {
	alert      *alert.Server
	net        *metrics.NetCounters
	retryAfter time.Duration
	nodeID     string
	agent      *membership.Agent
	recovery   Recovery
	// batches recycles the bursts decide-batch requests run as (a binwire
	// connection runs its decides in a burst of its own).
	batches sync.Pool

	// gate is the admission gate shared by both transports: a resizable
	// FIFO semaphore whose effective limits the overload controller owns.
	// A request must acquire a slot to run and releases it when done;
	// beyond the queue limit it is rejected, which is what bounds this
	// server's total exposure.
	gate         *overload.Gate
	serviceDelay time.Duration

	// Drain bookkeeping: draining refuses new admissions; inflight counts
	// admitted-but-unfinished requests; drained closes when draining is on
	// and inflight reaches zero.
	// draining is written under mu and read there by the authoritative
	// admission check; the lock-free read is admission's cheap pre-check.
	mu        sync.Mutex
	draining  atomic.Bool
	inflight  int
	drained   chan struct{}
	drainOnce sync.Once

	binary *BinaryServer // the binwire codec and its connections
}

// New builds the front end over an alert.Server.
func New(srv *alert.Server, cfg Config) *Server {
	s := &Server{
		alert:      srv,
		net:        metrics.NewNetCounters(),
		retryAfter: cfg.retryAfter(),
		nodeID:     cfg.NodeID,
		agent:      cfg.Membership,
		recovery:   cfg.Recovery,
		batches:    sync.Pool{New: func() any { return &batch{burst: srv.NewBurst()} }},
		gate: overload.NewGate(overload.NewController(overload.Config{
			Inflight:   cfg.maxInflight(),
			Queue:      cfg.maxQueue(),
			RetryAfter: cfg.retryAfter(),
		})),
		serviceDelay: cfg.ServiceDelay,
		drained:      make(chan struct{}),
	}
	s.binary = &BinaryServer{front: s, bin: metrics.NewBinCounters(), conns: make(map[net.Conn]struct{})}
	return s
}

// Close closes every binwire connection and waits for their goroutines
// (BinaryServer.Close); call it after Drain. http.Server.Shutdown cannot do
// this: it does not track upgraded connections.
func (s *Server) Close() error { return s.binary.Close() }

// OverloadStats snapshots the admission gate's live state.
func (s *Server) OverloadStats() metrics.OverloadSnapshot {
	_, _, ov := s.snapshots()
	return ov
}

// snapshots reads the HTTP counters, the binwire counters and the gate.
// The gate's shed-by-class counters are the two transports' reject counters
// of those classes: every shed is exactly one reject, counted once, on the
// wire it arrived by.
func (s *Server) snapshots() (metrics.NetSnapshot, *metrics.BinSnapshot, metrics.OverloadSnapshot) {
	net, bin, ov := s.net.Snapshot(), s.binary.bin.Snapshot(), s.gate.Snapshot()
	for _, t := range []metrics.TransportSnapshot{net.TransportSnapshot, bin.TransportSnapshot} {
		ov.ShedOverload += t.RejectedOverload
		ov.ShedDeadline += t.RejectedDeadline
		ov.ShedDraining += t.RejectedDraining
	}
	return net, &bin, ov
}

// NetStats snapshots the front end's request/latency/overload counters.
func (s *Server) NetStats() metrics.NetSnapshot { return s.net.Snapshot() }

// BinStats snapshots the binwire counters.
func (s *Server) BinStats() metrics.BinSnapshot { return s.binary.BinStats() }

// tc is the counter set the op core moves for requests that arrived over
// HTTP.
func (s *Server) tc() *metrics.TransportCounters { return &s.net.TransportCounters }

// Drain stops admitting mutating requests (new ones get 503 +
// Retry-After; reads still answer) and blocks until every admitted
// request has been served and accounted, or ctx expires. Writing the
// replies is the transports' business, which is why shutdown stops them
// (Close, http.Server.Shutdown) only after Drain returns. It
// is idempotent; the front end stays in draining mode afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	if s.inflight == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// HoldTokenForTest occupies one admission slot with no request attached,
// and ReleaseTokenForTest frees one. They exist so tests in other packages
// (client, cmd/alertload) can saturate the gate deterministically instead
// of racing real traffic against it; production code must never call them.
func (s *Server) HoldTokenForTest()    { s.gate.ForceAcquire() }
func (s *Server) ReleaseTokenForTest() { s.gate.Release() }

// maxBody bounds request bodies; a decide-batch of tens of thousands of
// requests fits comfortably.
const maxBody = 8 << 20

// ServeHTTP routes the /v1 API. Go 1.21-compatible by hand: method
// patterns in ServeMux arrived in 1.22 and go.mod supports 1.21.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/v1/decide":
		s.method(w, r, http.MethodPost, s.handleDecide)
	case path == "/v1/observe":
		s.method(w, r, http.MethodPost, s.handleObserve)
	case path == "/v1/decide-batch":
		s.method(w, r, http.MethodPost, s.handleDecideBatch)
	case path == "/v1/stats":
		s.method(w, r, http.MethodGet, s.handleStats)
	case path == BinwirePath:
		s.method(w, r, http.MethodGet, s.binary.upgrade)
	case path == "/metrics":
		s.method(w, r, http.MethodGet, s.handleMetrics)
	case path == "/v1/streams":
		s.method(w, r, http.MethodGet, s.handleStreams)
	case strings.HasPrefix(path, "/v1/streams/"):
		s.routeStream(w, r, strings.TrimPrefix(path, "/v1/streams/"))
	case path == membership.Endpoint:
		s.handleMembership(w, r)
	case strings.HasPrefix(path, "/v1/replicas/"):
		s.routeReplica(w, r, strings.TrimPrefix(path, "/v1/replicas/"))
	case path == "/v1/claims":
		s.method(w, r, http.MethodPost, s.handleClaim)
	default:
		s.net.RecordBadInput()
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint %s", path))
	}
}

// method runs h when the request uses the endpoint's one method.
func (s *Server) method(w http.ResponseWriter, r *http.Request, allow string, h func(http.ResponseWriter, *http.Request)) {
	if r.Method != allow {
		s.methodNotAllowed(w, allow)
		return
	}
	h(w, r)
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	s.net.RecordBadInput()
	w.Header().Set("Allow", allow)
	s.writeError(w, http.StatusMethodNotAllowed, "method not allowed")
}

// The data-plane handlers below are the HTTP codec over the op core
// (ops.go): decode the JSON body, call the op with the HTTP counters,
// encode its result or its reject. The per-input loop's three handlers
// read their body and build their reply in one pooled loopBody through
// the codec in jsonwire.go; every other body goes through encoding/json.

// loopBody is one loop request's memory: the body it read and then the
// reply it sends, and a batch's decoded requests and results.
type loopBody struct {
	buf     []byte
	reqs    BatchRequest
	results BatchResponse
}

// loopBodies recycles loopBody values across requests.
var loopBodies = sync.Pool{New: func() any { return new(loopBody) }}

// A loopBody that an unusually large request grew past these is dropped
// rather than pooled.
const (
	maxPooledBody  = 64 << 10
	maxPooledBatch = 1024
)

// observeAck is the POST /v1/observe reply.
var observeAck = []byte("{}\n")

func (lb *loopBody) free() {
	if cap(lb.buf) <= maxPooledBody && cap(lb.results.Results) <= maxPooledBatch && cap(lb.reqs.Requests) <= maxPooledBatch {
		loopBodies.Put(lb)
	}
}

// decodeLoop reads r's body, bounded by maxBody, into lb.buf and parses it
// with decode, writing the 400 itself on failure.
func (s *Server) decodeLoop(w http.ResponseWriter, r *http.Request, lb *loopBody, decode func([]byte) error) bool {
	// The buffer grows only with the bytes that arrive, never with the
	// Content-Length a client declares. (Handing rd to bytes.Buffer's
	// ReadFrom would move it to the heap: one more allocation a request.)
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	b := lb.buf[:0]
	var err error
	for err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	lb.buf = b
	if err == io.EOF {
		err = decode(b)
	}
	if err != nil {
		s.writeReject(w, badInput(s.tc(), fmt.Sprintf("bad request body: %v", err)))
		return false
	}
	return true
}

// writeReply sends a loop reply that the codec appended to lb.buf[:0],
// with its newline and in one Write, or a 500 when the codec refused a
// value (a NaN or infinite float).
func (s *Server) writeReply(w http.ResponseWriter, lb *loopBody, reply []byte, err error) {
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("encoding reply: %v", err))
		return
	}
	lb.buf = append(reply, '\n')
	writeLoop(w, http.StatusOK, lb.buf)
}

func writeLoop(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	lb := loopBodies.Get().(*loopBody)
	defer lb.free()
	var req DecideRequest
	if !s.decodeLoop(w, r, lb, func(b []byte) error { return DecodeDecideRequest(b, &req) }) {
		return
	}
	spec, err := req.Spec.ToSpec()
	if err != nil {
		s.writeReject(w, badInput(s.tc(), err.Error()))
		return
	}
	d, est, rej := s.decide(r.Context(), s.tc(), start, req.Stream, spec)
	if rej.refused() {
		s.writeReject(w, rej)
		return
	}
	reply, err := AppendDecideResponse(lb.buf[:0], &DecideResponse{
		Decision: FromDecision(d),
		Estimate: FromEstimate(est),
		NodeID:   s.nodeID,
	})
	s.writeReply(w, lb, reply, err)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	lb := loopBodies.Get().(*loopBody)
	defer lb.free()
	var req ObserveRequest
	if !s.decodeLoop(w, r, lb, func(b []byte) error { return DecodeObserveRequest(b, &req) }) {
		return
	}
	if rej := s.observe(r.Context(), s.tc(), req.Stream, req.Feedback.ToFeedback()); rej.refused() {
		s.writeReject(w, rej)
		return
	}
	writeLoop(w, http.StatusAccepted, observeAck)
}

func (s *Server) handleDecideBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	lb := loopBodies.Get().(*loopBody)
	defer lb.free()
	req := &lb.reqs
	if !s.decodeLoop(w, r, lb, func(b []byte) error { return DecodeBatchRequest(b, req) }) {
		return
	}
	if len(req.Requests) == 0 {
		s.writeReject(w, badInput(s.tc(), "empty batch"))
		return
	}
	b := s.batches.Get().(*batch)
	defer func() {
		b.reset()
		s.batches.Put(b)
	}()
	for i := range req.Requests {
		br := &req.Requests[i]
		spec, err := br.Spec.ToSpec()
		if err != nil {
			s.writeReject(w, badInput(s.tc(), fmt.Sprintf("request %d: %v", i, err)))
			return
		}
		b.add(br.Stream, spec)
	}
	if rej := s.decideBatch(r.Context(), s.tc(), start, b); rej.refused() {
		s.writeReject(w, rej)
		return
	}
	out := &lb.results
	out.Results = out.Results[:0]
	for i := range b.slots {
		res := b.burst.Result(i)
		out.Results = append(out.Results, BatchResult{
			Stream:   res.Stream,
			Decision: FromDecision(res.Decision),
			Estimate: FromEstimate(res.Estimate),
		})
	}
	reply, err := AppendBatchResponse(lb.buf[:0], out)
	s.writeReply(w, lb, reply, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.net.RecordRead()
	net, bin, ov := s.snapshots()
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Serve:    s.alert.Stats(),
		Net:      net,
		Bin:      bin,
		Overload: &ov,
		Platform: s.alert.Platform().Name,
		Models:   len(s.alert.Models()),
		Shards:   s.alert.Shards(),
		Streams:  s.alert.Streams(),
		NodeID:   s.nodeID,
	})
}

// handleMetrics serves GET /metrics: the serve/net/binary counters in
// Prometheus text exposition format. Ungated like the stats read —
// scrapers must keep answering while the server is saturated or draining.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.net.RecordRead()
	net, bin, ov := s.snapshots()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	metrics.WritePrometheus(w, s.alert.Stats(), net, bin, &ov)
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	s.net.RecordRead()
	ids := s.alert.StreamIDs()
	s.writeJSON(w, http.StatusOK, StreamsResponse{Count: len(ids), IDs: ids})
}

// streamID parses the {id} of a per-stream path, writing the 400 itself.
func (s *Server) streamID(w http.ResponseWriter, idStr string) (int, bool) {
	id, err := strconv.Atoi(idStr)
	if err != nil || strings.Contains(idStr, "/") {
		s.writeReject(w, badInput(s.tc(), fmt.Sprintf("bad stream id %q", idStr)))
		return 0, false
	}
	return id, true
}

// routeStream dispatches the per-stream endpoints:
//
//	DELETE /v1/streams/{id}           evict
//	PUT    /v1/streams/{id}           import a migrated session
//	GET    /v1/streams/{id}/snapshot  export (snapshot + remove) a session
func (s *Server) routeStream(w http.ResponseWriter, r *http.Request, rest string) {
	idStr, isExport := strings.CutSuffix(rest, "/snapshot")
	id, ok := s.streamID(w, idStr)
	if !ok {
		return
	}
	tc := s.tc()
	switch {
	case isExport:
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, http.MethodGet)
			return
		}
		// The blob rides base64 in JSON: session floats never pass through
		// JSON number formatting.
		blob, version, rej := s.export(r.Context(), tc, id)
		if rej.refused() {
			s.writeReject(w, rej)
			return
		}
		s.writeJSON(w, http.StatusOK, SnapshotResponse{
			Stream:      id,
			Version:     version,
			SnapshotB64: base64.StdEncoding.EncodeToString(blob),
		})
	case r.Method == http.MethodDelete:
		if rej := s.evict(r.Context(), tc, id); rej.refused() {
			s.writeReject(w, rej)
			return
		}
		s.writeJSON(w, http.StatusOK, EvictResponse{Stream: id, Streams: s.alert.Streams()})
	case r.Method == http.MethodPut:
		var req ImportRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		blob, rej := decodeB64(tc, req.SnapshotB64)
		if !rej.refused() {
			rej = s.importStream(r.Context(), tc, id, blob)
		}
		if rej.refused() {
			s.writeReject(w, rej)
			return
		}
		s.writeJSON(w, http.StatusOK, ImportResponse{Stream: id, Streams: s.alert.Streams()})
	default:
		s.methodNotAllowed(w, "DELETE, PUT")
	}
}

// decodeB64 unwraps a snapshot blob from its JSON transport encoding.
func decodeB64(tc *metrics.TransportCounters, b64 string) ([]byte, reject) {
	blob, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, badInput(tc, fmt.Sprintf("bad snapshot encoding: %v", err))
	}
	return blob, reject{}
}

// handleMembership serves the membership endpoint: GET returns this
// node's current view; POST delivers a peer heartbeat and returns the
// merged view. Both bypass the admission gate — membership is the control
// plane that decides who should be taking load, so it must keep answering
// precisely when the data plane is saturated or draining.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	if s.agent == nil {
		s.writeError(w, http.StatusNotFound, "membership not enabled on this node")
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.net.RecordRead()
		s.writeView(w, s.agent.View())
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			s.writeReject(w, badInput(s.tc(), fmt.Sprintf("bad heartbeat body: %v", err)))
			return
		}
		hb, err := membership.DecodeHeartbeat(body)
		if err != nil {
			s.writeReject(w, badInput(s.tc(), err.Error()))
			return
		}
		s.writeView(w, s.agent.HandleHeartbeat(hb))
	default:
		s.methodNotAllowed(w, "GET, POST")
	}
}

// writeView writes a membership view in its canonical encoding.
func (s *Server) writeView(w http.ResponseWriter, v membership.View) {
	data, err := membership.EncodeView(v)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	w.Write([]byte("\n"))
}

// healing reports whether the self-healing control plane is on, writing
// the 404 itself when it is not.
func (s *Server) healing(w http.ResponseWriter) bool {
	if s.recovery == nil {
		s.writeError(w, http.StatusNotFound, "self-healing not enabled on this node")
	}
	return s.recovery != nil
}

// routeReplica serves PUT /v1/replicas/{id}: store a peer's replicated
// checkpoint. Like the other control-plane endpoints it is ungated:
// replication is what makes the next failover lossless, so overload must
// not starve it.
func (s *Server) routeReplica(w http.ResponseWriter, r *http.Request, idStr string) {
	if !s.healing(w) {
		return
	}
	id, ok := s.streamID(w, idStr)
	if !ok {
		return
	}
	if r.Method != http.MethodPut {
		s.methodNotAllowed(w, http.MethodPut)
		return
	}
	var req ReplicaPutRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tc := s.tc()
	if req.Owner == "" {
		s.writeReject(w, badInput(tc, "replica without owner"))
		return
	}
	var snap alert.SessionSnapshot
	blob, rej := decodeB64(tc, req.SnapshotB64)
	if !rej.refused() {
		snap, rej = decodeSnapshot(tc, blob)
	}
	if rej.refused() {
		s.writeReject(w, rej)
		return
	}
	s.recovery.StoreReplica(id, req.Owner, snap.Decisions, snap)
	s.writeJSON(w, http.StatusOK, ReplicaPutResponse{Stream: id})
}

// handleClaim answers a peer's ownership claim (see ClaimRequest).
// Ungated: claims are how concurrent movers of one stream decide a single
// winner, and parking one behind a saturated gate would hold the fork
// window open.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	if !s.healing(w) {
		return
	}
	var req ClaimRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.NodeID == "" || (req.Kind != ClaimKindImport && req.Kind != ClaimKindRestore) {
		s.writeReject(w, badInput(s.tc(),
			fmt.Sprintf("claim needs node_id and kind %q or %q", ClaimKindImport, ClaimKindRestore)))
		return
	}
	superseded, local := s.recovery.HandleClaim(req.Stream, req.NodeID, req.Kind, req.Decisions)
	s.writeJSON(w, http.StatusOK, ClaimResponse{Superseded: superseded, Decisions: local})
}

// decodeBody parses a JSON request body, writing the 400 itself on
// failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.writeReject(w, badInput(s.tc(), fmt.Sprintf("bad request body: %v", err)))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError sends a non-retryable JSON error body.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeReject(w, reject{status: status, msg: msg})
}

// writeReject puts a reject on the HTTP wire: its status, the JSON error
// body, and for a retryable one the Retry-After hint both as a header (in
// whole seconds, per RFC 9110, rounded up) and in the body in milliseconds
// for precision.
func (s *Server) writeReject(w http.ResponseWriter, rej reject) {
	if rej.hint > 0 {
		secs := int64((rej.hint + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	s.writeJSON(w, rej.status, ErrorResponse{Error: rej.msg, RetryAfterMs: rej.retryAfterMs()})
}
