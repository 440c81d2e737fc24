package netserve

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
)

// startBinary binds a loopback listener, attaches a BinaryServer to the
// front end, and starts accepting; Close runs at test cleanup.
func startBinary(t *testing.T, front *Server, cfg BinaryConfig) *BinaryServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinary(front, ln, cfg)
	go bs.Serve()
	t.Cleanup(func() { bs.Close() })
	return bs
}

// rawConn drives the binary listener with hand-built frames — the tests
// below deliberately sit underneath the client's binwire codec so they pin the
// wire itself, not the client's interpretation of it.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	rd   *binwire.Reader
	id   uint64
}

func dialBinary(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, rd: binwire.NewReader(conn)}
}

func (rc *rawConn) send(frame []byte) {
	rc.t.Helper()
	if _, err := rc.conn.Write(frame); err != nil {
		rc.t.Fatalf("write frame: %v", err)
	}
}

func (rc *rawConn) next() binwire.Frame {
	rc.t.Helper()
	f, err := rc.rd.Next()
	if err != nil {
		rc.t.Fatalf("read frame: %v", err)
	}
	return f
}

// expect reads one frame and requires the given type and id.
func (rc *rawConn) expect(want binwire.MsgType, id uint64) binwire.Frame {
	rc.t.Helper()
	f := rc.next()
	if f.Type != want || f.ID != id {
		if f.Type == binwire.MsgError {
			code, ms, msg, _ := binwire.DecodeError(f.Body)
			rc.t.Fatalf("got error frame code=%d retry_after_ms=%d %q, want type %d id %d", code, ms, msg, want, id)
		}
		rc.t.Fatalf("got frame type=%d id=%d, want type %d id %d", f.Type, f.ID, want, id)
	}
	return f
}

func (rc *rawConn) decide(stream int, spec alert.Spec) (alert.Decision, alert.Estimate) {
	rc.t.Helper()
	rc.id++
	rc.send(binwire.AppendDecide(nil, rc.id, stream, spec))
	f := rc.expect(binwire.MsgDecideResp, rc.id)
	d, e, _, err := binwire.DecodeDecideResp(f.Body)
	if err != nil {
		rc.t.Fatal(err)
	}
	return d, e
}

func (rc *rawConn) observe(stream int, fb alert.Feedback) {
	rc.t.Helper()
	rc.id++
	rc.send(binwire.AppendObserve(nil, rc.id, stream, fb))
	rc.expect(binwire.MsgObserveResp, rc.id)
}

// expectError reads one frame and requires an error with the given code,
// returning its retry_after_ms hint.
func (rc *rawConn) expectError(id uint64, code uint16) int64 {
	rc.t.Helper()
	f := rc.expect(binwire.MsgError, id)
	gotCode, ms, msg, err := binwire.DecodeError(f.Body)
	if err != nil {
		rc.t.Fatal(err)
	}
	if gotCode != code {
		rc.t.Fatalf("error frame code %d (%q), want %d", gotCode, msg, code)
	}
	return ms
}

func sameDecision(a, b alert.Decision) bool {
	return a.Model == b.Model && a.Cap == b.Cap &&
		math.Float64bits(a.CapW) == math.Float64bits(b.CapW) &&
		math.Float64bits(a.PlannedStop) == math.Float64bits(b.PlannedStop) &&
		math.Float64bits(a.Overhead) == math.Float64bits(b.Overhead)
}

// TestBinaryDecideMatchesInProcess pins the tentpole invariant at the
// frame level: a stream driven over the binary listener — decide, observe
// the measured latency, decide again — produces the exact decision
// sequence, bit for bit, of the same stream driven against alert.Server
// in-process.
func TestBinaryDecideMatchesInProcess(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())
	ref := testAlertServer(t, 2)

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const stream = 3
	for i := 0; i < 40; i++ {
		d, est := rc.decide(stream, spec)
		rd, rest := ref.Decide(stream, spec)
		if !sameDecision(d, rd) {
			t.Fatalf("step %d: binary decision %+v != in-process %+v", i, d, rd)
		}
		if math.Float64bits(est.LatMean) != math.Float64bits(rest.LatMean) ||
			math.Float64bits(est.Energy) != math.Float64bits(rest.Energy) {
			t.Fatalf("step %d: estimates diverge: %+v vs %+v", i, est, rest)
		}
		fb := alert.Feedback{Decision: d, Latency: est.LatMean * 1.07, CompletedStage: -1}
		rc.observe(stream, fb)
		ref.Observe(stream, fb)
	}

	snap := bs.BinStats()
	if snap.Decides != 40 || snap.Observes != 40 {
		t.Errorf("counters = decides %d observes %d, want 40/40", snap.Decides, snap.Observes)
	}
	if snap.FramesIn != 80 || snap.FramesOut != 80 {
		t.Errorf("frames = in %d out %d, want 80/80", snap.FramesIn, snap.FramesOut)
	}
}

// TestBinaryBatch checks the client-sent batch frame: results come back in
// request order and match what the engine computes in-process.
func TestBinaryBatch(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())
	ref := testAlertServer(t, 2)

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	reqs := []alert.BatchRequest{
		{Stream: 1, Spec: spec},
		{Stream: 2, Spec: spec},
		{Stream: 1, Spec: spec},
	}
	rc.id++
	rc.send(binwire.AppendBatch(nil, rc.id, reqs))
	f := rc.expect(binwire.MsgBatchResp, rc.id)
	res, err := binwire.DecodeBatchResp(f.Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DecideBatch(reqs)
	if len(res) != len(want) {
		t.Fatalf("%d results, want %d", len(res), len(want))
	}
	for i := range res {
		if res[i].Stream != want[i].Stream || !sameDecision(res[i].Decision, want[i].Decision) {
			t.Fatalf("result %d: %+v != in-process %+v", i, res[i], want[i])
		}
	}
	if snap := bs.BinStats(); snap.Batches != 1 || snap.BatchDecisions != 3 {
		t.Errorf("batch counters = %d/%d, want 1/3", snap.Batches, snap.BatchDecisions)
	}
}

// TestBinaryBatchSteadyStateAllocs: every data-plane frame is served out of
// the connection's own buffers — decoded into its scratch, run as its engine
// burst, the reply encoded straight from the burst's results — so once
// those have grown a decide, observe or batch round trip allocates nothing
// on the server. The client side here is a pre-encoded frame and a reused
// reader, so every allocation AllocsPerRun sees is the server's.
func TestBinaryBatchSteadyStateAllocs(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{})
	bs := startBinary(t, front, BinaryConfig{})

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, est := dialBinary(t, bs.Addr()).decide(1, spec)
	fb := alert.Feedback{Decision: d, Latency: est.LatMean, CompletedStage: -1}
	reqs := make([]alert.BatchRequest, 16)
	for i := range reqs {
		reqs[i] = alert.BatchRequest{Stream: i % 5, Spec: spec}
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		resp  binwire.MsgType
	}{
		{"decide", binwire.AppendDecide(nil, 1, 1, spec), binwire.MsgDecideResp},
		{"observe", binwire.AppendObserve(nil, 1, 1, fb), binwire.MsgObserveResp},
		{"batch", binwire.AppendBatch(nil, 1, reqs), binwire.MsgBatchResp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialBinary(t, bs.Addr())
			roundTrip := func() {
				rc.send(tc.frame)
				rc.expect(tc.resp, 1)
			}
			for i := 0; i < 20; i++ { // sessions, buffers, scratch
				roundTrip()
			}
			if n := testing.AllocsPerRun(200, roundTrip); n >= 1 {
				t.Errorf("a binwire %s round trip allocates %.2f/op on the server, want ~0", tc.name, n)
			}
		})
	}
}

// TestBinaryVersionRejected sends a frame stamped with a future version:
// the server answers one error frame naming the version it speaks and
// hangs up (it cannot trust the rest of the byte stream).
func TestBinaryVersionRejected(t *testing.T) {
	front := New(testAlertServer(t, 1), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())

	frame := binwire.AppendDecide(nil, 9, 1, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
	frame[4] = 2 // version byte
	rc.send(frame)
	f := rc.expect(binwire.MsgError, 9)
	code, _, msg, err := binwire.DecodeError(f.Body)
	if err != nil {
		t.Fatal(err)
	}
	if code != binwire.CodeBadRequest || !strings.Contains(msg, "version") {
		t.Fatalf("version rejection = code %d %q", code, msg)
	}
	if _, err := rc.rd.Next(); err == nil {
		t.Fatal("connection stayed open after version mismatch")
	}
}

// TestBinaryUnknownTypeKeepsConnection sends a frame of a type the server
// does not serve — an unassigned one, and each retired stream-op type (7–13,
// whose ops are HTTP-only) — and requires a 400 error frame, one bad_input,
// and a connection that stays: the framing is intact, so later frames are
// still trustworthy.
func TestBinaryUnknownTypeKeepsConnection(t *testing.T) {
	front := New(testAlertServer(t, 1), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}

	for _, mt := range []binwire.MsgType{99, 7, 8, 9, 10, 11, 12, 13} {
		t.Run(fmt.Sprintf("type %d", mt), func(t *testing.T) {
			rc := dialBinary(t, bs.Addr())
			bad := bs.BinStats().BadFrames
			// A stream id for a body, as the retired request types carried.
			frame := binary.LittleEndian.AppendUint32(nil, 1+1+8+8)
			frame = append(frame, binwire.Version, byte(mt))
			frame = binary.LittleEndian.AppendUint64(frame, 1)
			frame = binary.LittleEndian.AppendUint64(frame, 1)
			rc.send(frame)
			rc.expectError(1, binwire.CodeBadRequest)
			rc.decide(2, spec) // still served
			if got := bs.BinStats().BadFrames - bad; got != 1 {
				t.Errorf("bad_frames moved by %d, want 1", got)
			}
		})
	}
}

// TestBinaryCoalesce pipelines eight decides on one connection in one write
// (at a server whose engine crossings take 30ms each, so eight separate
// ones would be unmissable) and checks the connection served them as a
// shared burst rather than one engine crossing each — and that the
// coalescing counters, whose names predate the burst, count it.
func TestBinaryCoalesce(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{ServiceDelay: 30 * time.Millisecond})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const burst = 8
	var frames []byte
	for i := 1; i <= burst; i++ {
		frames = binwire.AppendDecide(frames, uint64(i), i, spec)
	}
	rc.send(frames)

	got := make(map[uint64]bool)
	for i := 0; i < burst; i++ {
		f := rc.next()
		if f.Type != binwire.MsgDecideResp {
			t.Fatalf("frame %d: type %d", i, f.Type)
		}
		got[f.ID] = true
	}
	if len(got) != burst {
		t.Fatalf("saw %d distinct responses, want %d", len(got), burst)
	}
	snap := bs.BinStats()
	if snap.Decides != burst {
		t.Errorf("decides = %d, want %d", snap.Decides, burst)
	}
	if snap.Coalesced < 2 || snap.CoalesceFlushes < 1 {
		t.Errorf("coalesced = %d across %d flushes, want a shared flush", snap.Coalesced, snap.CoalesceFlushes)
	}
}

// TestStatsAdvertisesBinary checks GET /v1/stats grows the binary
// listener's address and counters once one is attached — the discovery
// hook PreferBinary clients rely on.
func TestStatsAdvertisesBinary(t *testing.T) {
	front := New(testAlertServer(t, 1), Config{})

	var before StatsResponse
	if code := doJSON(t, front, http.MethodGet, "/v1/stats", nil, &before); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if before.BinaryAddr != "" || before.Bin != nil {
		t.Fatalf("stats advertise a binary listener before one exists: %+v", before)
	}

	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())
	rc.decide(1, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})

	var after StatsResponse
	if code := doJSON(t, front, http.MethodGet, "/v1/stats", nil, &after); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if after.BinaryAddr != bs.Addr() {
		t.Errorf("binary_addr = %q, want %q", after.BinaryAddr, bs.Addr())
	}
	if after.Bin == nil || after.Bin.Decides != 1 {
		t.Errorf("bin counters = %+v, want 1 decide", after.Bin)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition: the endpoint is
// ungated, text-format, and carries serve, HTTP, and binary families.
func TestMetricsEndpoint(t *testing.T) {
	front := New(testAlertServer(t, 1), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())
	rc.decide(1, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
	// A checkpoint is a checkpoint on whichever transport served it.
	if code := doJSON(t, front, http.MethodGet, "/v1/streams/1/checkpoint", nil, nil); code != http.StatusOK {
		t.Fatalf("checkpoint status %d", code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE alert_serve_decisions_total counter",
		"alert_serve_decisions_total 1",
		"# TYPE alert_serve_candidates_scored_total counter",
		"alert_serve_infeasible_fallbacks_total 0\n",
		"alert_http_decides_total 0\n",
		"alert_http_checkpoints_total 1\n",
		"alert_http_reads_total 1\n",
		"alert_binwire_decides_total 1\n",
		"alert_binwire_checkpoints_total 0\n",
		"alert_binwire_conns 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
