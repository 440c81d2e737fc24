package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/alert-project/alert"
)

func testAlertServer(t testing.TB, shards int) *alert.Server {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func testSpec() Spec {
	return Spec{Objective: ObjectiveMinEnergy, DeadlineS: 0.2, AccuracyGoal: 0.9}
}

// postJSON round-trips one request against the handler and decodes the
// response body into out (when non-nil), returning the status code.
func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad response body: %v", method, path, err)
		}
	}
	return rec.Code
}

// TestEndpoints drives every endpoint once and checks the responses hang
// together: decisions are real, stats move, streams appear and evict.
func TestEndpoints(t *testing.T) {
	s := New(testAlertServer(t, 2), Config{})

	var dec DecideResponse
	if code := doJSON(t, s, http.MethodPost, "/v1/decide", DecideRequest{Stream: 7, Spec: testSpec()}, &dec); code != http.StatusOK {
		t.Fatalf("decide status %d", code)
	}
	if dec.Estimate.LatMeanS <= 0 {
		t.Errorf("decide returned an empty estimate: %+v", dec)
	}

	if code := doJSON(t, s, http.MethodPost, "/v1/observe", ObserveRequest{
		Stream: 7,
		Feedback: Feedback{
			Decision:       dec.Decision,
			LatencyS:       dec.Estimate.LatMeanS * 1.1,
			CompletedStage: -1,
		},
	}, nil); code != http.StatusAccepted {
		t.Fatalf("observe status %d", code)
	}

	var batch BatchResponse
	breq := BatchRequest{Requests: []DecideRequest{
		{Stream: 7, Spec: testSpec()},
		{Stream: 8, Spec: testSpec()},
		{Stream: 7, Spec: testSpec()},
	}}
	if code := doJSON(t, s, http.MethodPost, "/v1/decide-batch", breq, &batch); code != http.StatusOK {
		t.Fatalf("decide-batch status %d", code)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Stream != breq.Requests[i].Stream {
			t.Errorf("result %d stream %d, want %d (request order)", i, r.Stream, breq.Requests[i].Stream)
		}
		if r.Estimate.LatMeanS <= 0 {
			t.Errorf("result %d empty: %+v", i, r)
		}
	}

	var streams StreamsResponse
	if code := doJSON(t, s, http.MethodGet, "/v1/streams", nil, &streams); code != http.StatusOK {
		t.Fatalf("streams status %d", code)
	}
	if streams.Count != 2 || len(streams.IDs) != 2 || streams.IDs[0] != 7 || streams.IDs[1] != 8 {
		t.Errorf("streams = %+v, want ids [7 8]", streams)
	}

	var stats StatsResponse
	if code := doJSON(t, s, http.MethodGet, "/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Serve.Decisions != 4 || stats.Serve.Observes != 1 {
		t.Errorf("serve counters = %+v, want 4 decisions 1 observe", stats.Serve)
	}
	if stats.Serve.CandidatesScored < stats.Serve.Decisions || stats.Serve.InfeasibleFallbacks != 0 {
		t.Errorf("scan counters = %d scored, %d fallbacks over %d feasible decisions",
			stats.Serve.CandidatesScored, stats.Serve.InfeasibleFallbacks, stats.Serve.Decisions)
	}
	if stats.Net.Decides != 1 || stats.Net.Batches != 1 || stats.Net.BatchDecisions != 3 || stats.Net.Observes != 1 {
		t.Errorf("net counters = %+v", stats.Net)
	}
	if stats.Streams != 2 || stats.Shards != 2 {
		t.Errorf("stats gauges = streams %d shards %d, want 2/2", stats.Streams, stats.Shards)
	}
	if stats.Platform != "CPU1" || stats.Models == 0 {
		t.Errorf("stats identity = platform %q models %d, want CPU1 and a candidate count", stats.Platform, stats.Models)
	}

	var evict EvictResponse
	if code := doJSON(t, s, http.MethodDelete, "/v1/streams/7", nil, &evict); code != http.StatusOK {
		t.Fatalf("evict status %d", code)
	}
	if evict.Stream != 7 || evict.Streams != 1 {
		t.Errorf("evict = %+v, want stream 7, 1 remaining", evict)
	}
}

// TestNetworkMatchesInProcess is the netserve-level replay-equivalence
// criterion: the same decide/observe sequence through the HTTP surface and
// through alert.Server directly must produce bit-identical decisions —
// JSON carries every float64 exactly.
func TestNetworkMatchesInProcess(t *testing.T) {
	local := testAlertServer(t, 2)
	remote := New(testAlertServer(t, 1), Config{}) // different shard count on purpose
	ts := httptest.NewServer(remote)
	defer ts.Close()

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const stream, steps = 3, 40
	for i := 0; i < steps; i++ {
		want, wantEst := local.Decide(stream, spec)

		var body bytes.Buffer
		json.NewEncoder(&body).Encode(DecideRequest{Stream: stream, Spec: FromSpec(spec)})
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		var dec DecideResponse
		if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := dec.Decision.ToDecision()
		if got != want {
			t.Fatalf("step %d: network decision %+v != in-process %+v", i, got, want)
		}
		if gotEst := dec.Estimate.ToEstimate(); gotEst != wantEst {
			t.Fatalf("step %d: network estimate %+v != in-process %+v", i, gotEst, wantEst)
		}

		// Identical synthetic feedback on both paths; the slowdown varies
		// with i so the filter state actually moves.
		fb := alert.Feedback{
			Decision:       want,
			Latency:        wantEst.LatMean * (0.9 + 0.01*float64(i%20)),
			CompletedStage: -1,
			IdlePowerW:     5,
		}
		local.Observe(stream, fb)
		body.Reset()
		json.NewEncoder(&body).Encode(ObserveRequest{Stream: stream, Feedback: FromFeedback(fb)})
		resp, err = http.Post(ts.URL+"/v1/observe", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe status %d", resp.StatusCode)
		}
	}
}

// TestOverload is the acceptance-criteria overload test: with the gate
// artificially saturated, concurrent requests split cleanly into served
// 200s and bounded-queue 429s carrying Retry-After — and zero accepted
// requests are dropped (every 200 carries a real decision; 200s + 429s
// account for every request).
func TestOverload(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{MaxInflight: 2, MaxQueue: 2, RetryAfter: 10 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Saturate the admission gate from outside the HTTP path: deposit all
	// tokens so real requests must queue, overflow, or wait for release.
	for i := 0; i < 2; i++ {
		s.HoldTokenForTest()
	}

	const n = 30
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		served   int
		rejected int
	)
	body, _ := json.Marshal(DecideRequest{Stream: 1, Spec: Spec{Objective: ObjectiveMinEnergy, DeadlineS: 30, AccuracyGoal: 0.9}})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("decide request failed: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var dec DecideResponse
				if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil || dec.Estimate.LatMeanS <= 0 {
					t.Errorf("accepted request served an empty decision: %+v err=%v", dec, err)
					return
				}
				mu.Lock()
				served++
				mu.Unlock()
			case http.StatusTooManyRequests:
				if ra := resp.Header.Get("Retry-After"); ra == "" {
					t.Error("429 without Retry-After header")
				}
				var e ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.RetryAfterMs <= 0 {
					t.Errorf("429 body lacks retry_after_ms: %+v err=%v", e, err)
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}

	// Let the herd arrive (the queue holds 2, the rest must 429), then
	// open the gate.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 2; i++ {
		s.ReleaseTokenForTest()
	}
	wg.Wait()

	if served+rejected != n {
		t.Fatalf("served %d + rejected %d != %d requests", served, rejected, n)
	}
	if rejected == 0 {
		t.Fatal("no 429s: the queue bound did not engage")
	}
	if served < 2 {
		t.Fatalf("served %d, want at least the 2 queued requests", served)
	}
	snap := s.NetStats()
	if snap.RejectedOverload != int64(rejected) {
		t.Errorf("rejected_overload counter = %d, want %d", snap.RejectedOverload, rejected)
	}
	if snap.Decides != int64(served) {
		t.Errorf("decides counter = %d, want %d", snap.Decides, served)
	}

	// After the overload clears, the gate admits normally again.
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-overload decide status %d, want 200", resp.StatusCode)
	}
}

// TestDeadlineExpiresInQueue: a decide whose Spec deadline elapses while
// it waits at the gate is rejected 429, not served late.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{MaxInflight: 1, MaxQueue: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.HoldTokenForTest() // hold the only slot for the whole test

	body, _ := json.Marshal(DecideRequest{Stream: 1, Spec: Spec{
		Objective: ObjectiveMinEnergy, DeadlineS: 0.05, AccuracyGoal: 0.9,
	}})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 after deadline expiry", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("rejection took %s, want ~the 50ms deadline", waited)
	}
	if snap := s.NetStats(); snap.RejectedDeadline != 1 {
		t.Errorf("rejected_deadline counter = %d, want 1", snap.RejectedDeadline)
	}
	s.ReleaseTokenForTest()
}

// TestHugeDeadlineAdmits: a Spec deadline too large to represent as a
// time.Duration must mean "no admission bound", not an already-expired
// context (the float64→int64 overflow is implementation-defined and
// negative on amd64, which would 429 the most patient request whenever it
// queued).
func TestHugeDeadlineAdmits(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{MaxInflight: 1, MaxQueue: 4})
	s.HoldTokenForTest() // force the request through the queue path
	release := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.ReleaseTokenForTest()
		close(release)
	}()

	var dec DecideResponse
	code := doJSON(t, s, http.MethodPost, "/v1/decide", DecideRequest{
		Stream: 1,
		Spec:   Spec{Objective: ObjectiveMinEnergy, DeadlineS: 1e12, AccuracyGoal: 0.9},
	}, &dec)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (huge deadline treated as expired?)", code)
	}
	if dec.Estimate.LatMeanS <= 0 {
		t.Fatalf("empty decision: %+v", dec)
	}
	<-release
	if d, ok := admissionTimeout(0.5); !ok || d != 500*time.Millisecond {
		t.Errorf("admissionTimeout(0.5) = %v, %v; want 500ms, true", d, ok)
	}
	if _, ok := admissionTimeout(0); ok {
		t.Error("admissionTimeout(0) must impose no bound")
	}
	if _, ok := admissionTimeout(1e300); ok {
		t.Error("admissionTimeout(1e300) must impose no bound")
	}
}

// TestDrain: after Drain, new requests get 503 + Retry-After while
// admitted ones finish; Drain returns once inflight hits zero.
func TestDrain(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{MaxInflight: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One admitted request parked past the gate (simulated by taking its
	// token and inflight slot by hand).
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	s.HoldTokenForTest()

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()

	// Drain must refuse new work while the parked request is in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		body, _ := json.Marshal(DecideRequest{Stream: 1, Spec: testSpec()})
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		ra := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if ra == "" {
				t.Error("503 without Retry-After header")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still answering %d", code)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	default:
	}

	// The parked request finishes; Drain must now complete.
	s.release()
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if snap := s.NetStats(); snap.RejectedDraining == 0 {
		t.Error("rejected_draining counter did not move")
	}
}

// TestBadRequests: malformed inputs get 4xx, never a hang or a 5xx panic.
func TestBadRequests(t *testing.T) {
	s := New(testAlertServer(t, 1), Config{})
	cases := []struct {
		method, path string
		body         string
		want         int
	}{
		{http.MethodPost, "/v1/decide", `{not json`, http.StatusBadRequest},
		{http.MethodPost, "/v1/decide", `{"stream":1,"spec":{"objective":"sideways","deadline_s":1}}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/decide", `{"stream":1,"bogus_field":1}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/decide-batch", `{"requests":[]}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/decide", ``, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/stats", ``, http.StatusMethodNotAllowed},
		{http.MethodDelete, "/v1/streams/notanint", ``, http.StatusBadRequest},
		{http.MethodGet, "/v1/streams/3", ``, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/nope", ``, http.StatusNotFound},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader([]byte(tc.body)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: error body %q not an ErrorResponse", tc.method, tc.path, rec.Body.String())
		}
	}
	if snap := s.NetStats(); snap.BadRequests != int64(len(cases)) {
		t.Errorf("bad_requests counter = %d, want %d", snap.BadRequests, len(cases))
	}
}

// TestConcurrentTraffic hammers the full surface concurrently under the
// race detector: decides, batches, observes, reads, evictions.
func TestConcurrentTraffic(t *testing.T) {
	s := New(testAlertServer(t, 2), Config{MaxInflight: 8, MaxQueue: 1024})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch i % 5 {
				case 0, 1:
					body, _ := json.Marshal(DecideRequest{Stream: w, Spec: testSpec()})
					resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 2:
					body, _ := json.Marshal(BatchRequest{Requests: []DecideRequest{
						{Stream: w, Spec: testSpec()}, {Stream: w + 100, Spec: testSpec()},
					}})
					resp, err := http.Post(ts.URL+"/v1/decide-batch", "application/json", bytes.NewReader(body))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 3:
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 4:
					req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/streams/%d", ts.URL, w+100), nil)
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	snap := s.NetStats()
	if snap.Decides == 0 || snap.Batches == 0 || snap.Evictions == 0 {
		t.Errorf("traffic did not register: %+v", snap)
	}
	if snap.RejectedOverload != 0 {
		t.Errorf("unexpected overload rejections: %d (queue should be deep enough)", snap.RejectedOverload)
	}
}
