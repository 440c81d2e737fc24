package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
)

// waitQueued polls until the gate's queue depth reaches want — tests that
// need a request parked at the gate before probing use this instead of
// sleeping.
func waitQueued(t *testing.T, s *Server, want int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("queue depth %d", want), func() bool {
		_, depth := s.gate.Occupancy()
		return depth >= want
	})
}

// TestRetryHintClamp pins the Retry-After table: the hint a 429 carries
// never exceeds the request's remaining deadline headroom, is floored at
// 1ms so it stays a usable hint, and degenerate deadlines (zero, negative,
// infinite) leave the configured hint untouched. wantMs is the one
// hint→wire conversion both codecs share: whole milliseconds, never 0 for
// a retryable reject — 0 reads as "no hint" on both wires.
func TestRetryHintClamp(t *testing.T) {
	cases := []struct {
		name      string
		static    time.Duration
		deadlineS float64
		want      time.Duration
		wantMs    int64
	}{
		{"no deadline", 50 * time.Millisecond, 0, 50 * time.Millisecond, 50},
		{"negative deadline", 50 * time.Millisecond, -3, 50 * time.Millisecond, 50},
		{"roomy deadline", 50 * time.Millisecond, 10, 50 * time.Millisecond, 50},
		{"exact deadline", 50 * time.Millisecond, 0.05, 50 * time.Millisecond, 50},
		{"clamped", 50 * time.Millisecond, 0.02, 20 * time.Millisecond, 20},
		{"sub-millisecond floors at 1ms", 50 * time.Millisecond, 0.0001, time.Millisecond, 1},
		{"infinite deadline", 50 * time.Millisecond, math.Inf(1), 50 * time.Millisecond, 50},
		{"huge deadline", 50 * time.Millisecond, 1e300, 50 * time.Millisecond, 50},
		{"sub-millisecond static hint floors at 1 on the wire", 500 * time.Microsecond, 0, 500 * time.Microsecond, 1},
		{"fractional milliseconds truncate", 2500 * time.Microsecond, 0, 2500 * time.Microsecond, 2},
	}
	for _, tc := range cases {
		s := New(testAlertServer(t, 1), Config{RetryAfter: tc.static})
		got := s.retryHint(tc.deadlineS)
		if got != tc.want {
			t.Errorf("%s: retryHint(%g) = %v, want %v", tc.name, tc.deadlineS, got, tc.want)
		}
		if ms := (reject{status: 429, hint: got}).retryAfterMs(); ms != tc.wantMs {
			t.Errorf("%s: retry_after_ms = %d, want %d", tc.name, ms, tc.wantMs)
		}
	}
	if ms := (reject{status: 404}).retryAfterMs(); ms != 0 {
		t.Errorf("non-retryable reject carries retry_after_ms %d, want 0", ms)
	}
}

// TestRetryHintClampE2E drives the clamp through the wire: a static gate
// configured with a 50ms hint rejects a request that only has 20ms of
// deadline left, and the 429 body hints 20ms — not a retry scheduled past
// the caller's own deadline.
func TestRetryHintClampE2E(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{
		MaxInflight: 1, MaxQueue: 1, RetryAfter: 50 * time.Millisecond,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.HoldTokenForTest()
	// Park one long-deadline request in the only queue slot.
	parked, _ := json.Marshal(DecideRequest{Stream: 1, Spec: Spec{
		Objective: ObjectiveMinEnergy, DeadlineS: 30, AccuracyGoal: 0.9,
	}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(parked))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitQueued(t, s, 1)

	probe, _ := json.Marshal(DecideRequest{Stream: 2, Spec: Spec{
		Objective: ObjectiveMinEnergy, DeadlineS: 0.02, AccuracyGoal: 0.9,
	}})
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMs != 20 {
		t.Errorf("retry_after_ms = %d, want 20 (clamped to deadline headroom)", e.RetryAfterMs)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After header = %q, want %q (ceil to whole seconds, floor 1)", ra, "1")
	}

	s.ReleaseTokenForTest()
	<-done
}

// TestAdmissionTimeoutEdges pins the deadline→admission-bound conversion
// for the degenerate inputs a client can put on the wire: zero and
// negative mean "no bound", sub-millisecond values survive the float math,
// and +Inf/NaN/overflow must not come out already expired.
func TestAdmissionTimeoutEdges(t *testing.T) {
	cases := []struct {
		name    string
		seconds float64
		want    time.Duration
		bounded bool
	}{
		{"zero", 0, 0, false},
		{"negative", -1, 0, false},
		{"sub-millisecond", 0.0005, 500 * time.Microsecond, true},
		{"one nanosecond", 1e-9, time.Nanosecond, true},
		{"plain", 0.2, 200 * time.Millisecond, true},
		{"positive infinity", math.Inf(1), 0, false},
		{"negative infinity", math.Inf(-1), 0, false},
		{"NaN", math.NaN(), 0, false},
		{"overflows int64", 1e300, 0, false},
	}
	for _, tc := range cases {
		d, ok := admissionTimeout(tc.seconds)
		if ok != tc.bounded || (ok && d != tc.want) {
			t.Errorf("%s: admissionTimeout(%g) = (%v, %v), want (%v, %v)",
				tc.name, tc.seconds, d, ok, tc.want, tc.bounded)
		}
	}
}

// TestSubMillisecondDeadlineHTTP: a 0.5ms deadline that cannot clear the
// queue is rejected promptly as a deadline expiry, and the hint it carries
// is floored at 1ms rather than rounding to a useless zero.
func TestSubMillisecondDeadlineHTTP(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{MaxInflight: 1, MaxQueue: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.HoldTokenForTest()
	defer s.ReleaseTokenForTest()

	body, _ := json.Marshal(DecideRequest{Stream: 1, Spec: Spec{
		Objective: ObjectiveMinEnergy, DeadlineS: 0.0005, AccuracyGoal: 0.9,
	}})
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMs < 1 {
		t.Errorf("retry_after_ms = %d, want >= 1", e.RetryAfterMs)
	}
	if snap := s.NetStats(); snap.RejectedDeadline != 1 {
		t.Errorf("rejected_deadline = %d, want 1", snap.RejectedDeadline)
	}
}

// TestBinaryDeadlineEdges drives the same degenerate deadlines through the
// binary listener: +Inf admits once capacity frees (JSON cannot even carry
// it — the binary wire can, and it must mean "infinitely patient", not
// "already expired"), and a sub-millisecond deadline expires in the queue
// with a non-zero hint.
func TestBinaryDeadlineEdges(t *testing.T) {
	front := New(testAlertServer(t, 1), Config{MaxInflight: 1, MaxQueue: 4})
	bs := startBinary(t, front, BinaryConfig{})

	// +Inf deadline: queues patiently, served after release.
	front.HoldTokenForTest()
	inf := dialBinary(t, bs.Addr())
	inf.send(binwire.AppendDecide(nil, 1, 5, alert.Spec{
		Objective: alert.MinimizeEnergy, Deadline: math.Inf(1), AccuracyGoal: 0.9,
	}))
	waitQueued(t, front, 1)
	front.ReleaseTokenForTest()
	f := inf.expect(binwire.MsgDecideResp, 1)
	if _, est, _, err := binwire.DecodeDecideResp(f.Body); err != nil || est.LatMean <= 0 {
		t.Fatalf("infinite-deadline decide not served: est=%+v err=%v", est, err)
	}

	// Sub-millisecond deadline with the slot held: expires in queue, 429
	// frame with a floored (>=1ms) hint.
	front.HoldTokenForTest()
	defer front.ReleaseTokenForTest()
	tight := dialBinary(t, bs.Addr())
	tight.send(binwire.AppendDecide(nil, 2, 6, alert.Spec{
		Objective: alert.MinimizeEnergy, Deadline: 0.0005, AccuracyGoal: 0.9,
	}))
	if ms := tight.expectError(2, binwire.CodeOverloaded); ms < 1 {
		t.Errorf("retry_after_ms = %d, want >= 1", ms)
	}
	if snap := bs.BinStats(); snap.RejectedDeadline != 1 {
		t.Errorf("rejected_deadline = %d, want 1", snap.RejectedDeadline)
	}
}

// TestDynamicRetryAfterHTTP: with the adaptive gate on, an overload 429
// carries the controller's live drain estimate — (queued+1) × expected
// service time / inflight limit — instead of the static configured hint.
func TestDynamicRetryAfterHTTP(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{
		MaxInflight: 1, MaxQueue: 1, Adaptive: true, RetryAfter: time.Hour,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.gate.Controller().ObserveService(10 * time.Millisecond)
	s.HoldTokenForTest()

	parked, _ := json.Marshal(DecideRequest{Stream: 1, Spec: Spec{
		Objective: ObjectiveMinEnergy, DeadlineS: 30, AccuracyGoal: 0.9,
	}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(parked))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitQueued(t, s, 1)

	probe, _ := json.Marshal(DecideRequest{Stream: 2, Spec: Spec{
		Objective: ObjectiveMinEnergy, AccuracyGoal: 0.9,
	}})
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	// One queued request ahead, 10ms expected service, limit 1:
	// (1+1) × 10ms / 1 = 20ms. Exact because EWMA seeds on first sample.
	if e.RetryAfterMs != 20 {
		t.Errorf("retry_after_ms = %d, want 20 (drain estimate, not the 1h static hint)", e.RetryAfterMs)
	}

	s.ReleaseTokenForTest()
	<-done
}

// TestStatsAndMetricsOverload checks the observability surface: GET
// /v1/stats carries the gate snapshot and per-stream SLO table, and GET
// /metrics renders the alert_overload_* families.
func TestStatsAndMetricsOverload(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{MaxInflight: 3, MaxQueue: 6, SLOShed: true})

	var dec DecideResponse
	if code := doJSON(t, s, http.MethodPost, "/v1/decide", DecideRequest{Stream: 11, Spec: testSpec()}, &dec); code != http.StatusOK {
		t.Fatalf("decide status %d", code)
	}

	var stats StatsResponse
	if code := doJSON(t, s, http.MethodGet, "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Overload == nil {
		t.Fatal("stats.overload missing")
	}
	if stats.Overload.InflightLimit != 3 || stats.Overload.QueueLimit != 6 {
		t.Errorf("limits = %d/%d, want 3/6", stats.Overload.InflightLimit, stats.Overload.QueueLimit)
	}
	if !stats.Overload.SLOShed || stats.Overload.Adaptive {
		t.Errorf("flags = %+v, want slo_shed only", stats.Overload)
	}
	if stats.Overload.ServiceEWMA <= 0 {
		t.Errorf("service_ewma = %v, want > 0 after a served decide", stats.Overload.ServiceEWMA)
	}
	if len(stats.SLO) != 1 || stats.SLO[0].Stream != 11 || stats.SLO[0].Served != 1 ||
		stats.SLO[0].Met != 1 || stats.SLO[0].Attainment != 1 {
		t.Errorf("slo = %+v, want stream 11 served=met=1", stats.SLO)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	bodyStr := rec.Body.String()
	for _, want := range []string{
		"alert_overload_slo_shed 1\n",
		"alert_overload_adaptive 0\n",
		"alert_overload_inflight_limit 3\n",
		"alert_overload_queue_limit 6\n",
		"alert_overload_shed_hopeless_total 0\n",
	} {
		if !strings.Contains(bodyStr, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestAdaptiveServesIdenticalDecisions: turning the adaptive gate and SLO
// shedder on must not change a single served decision — admission decides
// *whether* a request runs, never *what* it computes. Same script, static
// vs adaptive server, bit-identical decision sequence.
func TestAdaptiveServesIdenticalDecisions(t *testing.T) {
	static := New(testAlertServer(t, 1), Config{})
	adaptive := New(testAlertServer(t, 1), Config{Adaptive: true, SLOShed: true})

	spec := testSpec()
	for i := 0; i < 20; i++ {
		var ds, da DecideResponse
		if code := doJSON(t, static, http.MethodPost, "/v1/decide", DecideRequest{Stream: 1, Spec: spec}, &ds); code != http.StatusOK {
			t.Fatalf("static decide %d: status %d", i, code)
		}
		if code := doJSON(t, adaptive, http.MethodPost, "/v1/decide", DecideRequest{Stream: 1, Spec: spec}, &da); code != http.StatusOK {
			t.Fatalf("adaptive decide %d: status %d", i, code)
		}
		if ds.Decision != da.Decision {
			t.Fatalf("step %d: adaptive decision %+v != static %+v", i, da.Decision, ds.Decision)
		}
		fb := Feedback{Decision: ds.Decision, LatencyS: ds.Estimate.LatMeanS * 1.05, CompletedStage: -1}
		if code := doJSON(t, static, http.MethodPost, "/v1/observe", ObserveRequest{Stream: 1, Feedback: fb}, nil); code != http.StatusAccepted {
			t.Fatalf("static observe %d: status %d", i, code)
		}
		if code := doJSON(t, adaptive, http.MethodPost, "/v1/observe", ObserveRequest{Stream: 1, Feedback: fb}, nil); code != http.StatusAccepted {
			t.Fatalf("adaptive observe %d: status %d", i, code)
		}
	}
}
