package netserve

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"github.com/alert-project/alert"
)

// TestMigrationOverHTTP is the wire-level migration differential test:
// drive a stream against node A through the HTTP surface, export its
// session with GET /v1/streams/{id}/snapshot, import it into node B with
// PUT /v1/streams/{id}, continue the traffic on B — and require the
// stitched decision sequence to be bit-identical to one in-process
// alert.Server serving the whole sequence.
func TestMigrationOverHTTP(t *testing.T) {
	nodeA := New(testAlertServer(t, 2), Config{NodeID: "a"})
	nodeB := New(testAlertServer(t, 3), Config{NodeID: "b"})
	solo := testAlertServer(t, 1)

	const stream, n = 11, 60
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Objective: ObjectiveMinEnergy, DeadlineS: 0.1 + 0.002*float64(i), AccuracyGoal: 0.9}
	}

	step := func(node *Server, i int) Decision {
		var dec DecideResponse
		if code := doJSON(t, node, http.MethodPost, "/v1/decide", DecideRequest{Stream: stream, Spec: specs[i]}, &dec); code != http.StatusOK {
			t.Fatalf("step %d: decide status %d", i, code)
		}
		fb := Feedback{Decision: dec.Decision, LatencyS: dec.Estimate.LatMeanS * 1.07, CompletedStage: -1, IdlePowerW: 4}
		if code := doJSON(t, node, http.MethodPost, "/v1/observe", ObserveRequest{Stream: stream, Feedback: fb}, nil); code != http.StatusAccepted {
			t.Fatalf("step %d: observe status %d", i, code)
		}
		return dec.Decision
	}
	soloStep := func(i int) Decision {
		spec, err := specs[i].ToSpec()
		if err != nil {
			t.Fatal(err)
		}
		d, est := solo.Decide(stream, spec)
		solo.Observe(stream, alert.Feedback{Decision: d, Latency: est.LatMean * 1.07, CompletedStage: -1, IdlePowerW: 4})
		return FromDecision(d)
	}

	for i := 0; i < n/2; i++ {
		if got, want := step(nodeA, i), soloStep(i); got != want {
			t.Fatalf("pre-migration step %d: %+v, want %+v", i, got, want)
		}
	}

	var snap SnapshotResponse
	if code := doJSON(t, nodeA, http.MethodGet, fmt.Sprintf("/v1/streams/%d/snapshot", stream), nil, &snap); code != http.StatusOK {
		t.Fatalf("export status %d", code)
	}
	if snap.Stream != stream || snap.Version != 1 || snap.SnapshotB64 == "" {
		t.Fatalf("export reply %+v", snap)
	}
	// Export removed the session: a second export finds nothing.
	if code := doJSON(t, nodeA, http.MethodGet, fmt.Sprintf("/v1/streams/%d/snapshot", stream), nil, nil); code != http.StatusNotFound {
		t.Fatalf("re-export status %d, want 404", code)
	}

	var imp ImportResponse
	if code := doJSON(t, nodeB, http.MethodPut, fmt.Sprintf("/v1/streams/%d", stream), ImportRequest{SnapshotB64: snap.SnapshotB64}, &imp); code != http.StatusOK {
		t.Fatalf("import status %d", code)
	}
	if imp.Stream != stream || imp.Streams != 1 {
		t.Fatalf("import reply %+v", imp)
	}

	for i := n / 2; i < n; i++ {
		if got, want := step(nodeB, i), soloStep(i); got != want {
			t.Fatalf("post-migration step %d: %+v, want %+v", i, got, want)
		}
	}

	// The nodes' stats reflect the migration and their identities.
	var statsA, statsB StatsResponse
	doJSON(t, nodeA, http.MethodGet, "/v1/stats", nil, &statsA)
	doJSON(t, nodeB, http.MethodGet, "/v1/stats", nil, &statsB)
	if statsA.NodeID != "a" || statsB.NodeID != "b" {
		t.Errorf("node ids = %q/%q, want a/b", statsA.NodeID, statsB.NodeID)
	}
	if statsA.Net.Exports != 1 || statsA.Serve.StreamExports != 1 || statsA.Streams != 0 {
		t.Errorf("node a after export: net.exports=%d serve.exports=%d streams=%d, want 1/1/0",
			statsA.Net.Exports, statsA.Serve.StreamExports, statsA.Streams)
	}
	if statsB.Net.Imports != 1 || statsB.Serve.StreamImports != 1 || statsB.Streams != 1 {
		t.Errorf("node b after import: net.imports=%d serve.imports=%d streams=%d, want 1/1/1",
			statsB.Net.Imports, statsB.Serve.StreamImports, statsB.Streams)
	}
}

// TestImportRejections: garbled base64, a corrupt blob, and a conflicting
// live stream are refused with 400/400/409 and recorded, never imported.
func TestImportRejections(t *testing.T) {
	s := New(testAlertServer(t, 2), Config{})

	if code := doJSON(t, s, http.MethodPut, "/v1/streams/3", ImportRequest{SnapshotB64: "!!! not base64 !!!"}, nil); code != http.StatusBadRequest {
		t.Errorf("garbled base64: status %d, want 400", code)
	}
	if code := doJSON(t, s, http.MethodPut, "/v1/streams/3", ImportRequest{
		SnapshotB64: base64.StdEncoding.EncodeToString([]byte("junk")),
	}, nil); code != http.StatusBadRequest {
		t.Errorf("corrupt blob: status %d, want 400", code)
	}

	// Materialize stream 3, export a donor snapshot from another stream,
	// and try to land it on the live one.
	doJSON(t, s, http.MethodPost, "/v1/decide", DecideRequest{Stream: 3, Spec: testSpec()}, nil)
	doJSON(t, s, http.MethodPost, "/v1/decide", DecideRequest{Stream: 4, Spec: testSpec()}, nil)
	var snap SnapshotResponse
	if code := doJSON(t, s, http.MethodGet, "/v1/streams/4/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("export status %d", code)
	}
	if code := doJSON(t, s, http.MethodPut, "/v1/streams/3", ImportRequest{SnapshotB64: snap.SnapshotB64}, nil); code != http.StatusConflict {
		t.Errorf("import onto live stream: status %d, want 409", code)
	}

	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", nil, &stats)
	if stats.Net.Imports != 0 || stats.Serve.StreamImports != 0 {
		t.Errorf("rejected imports were counted as served: %+v", stats.Net)
	}
	if stats.Net.BadRequests != 2 {
		t.Errorf("bad_requests = %d, want 2", stats.Net.BadRequests)
	}
}

// TestEvictRacesDecideBatch is the netserve-level eviction race test
// (the serve layer's is TestEvictStreamConcurrentWithDecideBatch):
// DELETE /v1/streams/{id} racing in-flight POST /v1/decide-batch on the
// same stream. Every batch response must carry a full set of real
// decisions — admission is all-or-nothing, the pool never drops accepted
// work — and the stream-table gauges must balance when the dust settles.
func TestEvictRacesDecideBatch(t *testing.T) {
	s := New(testAlertServer(t, 2), Config{MaxInflight: 32})

	const hot, rounds = 0, 120
	breq := BatchRequest{Requests: []DecideRequest{
		{Stream: hot, Spec: testSpec()},
		{Stream: 1, Spec: testSpec()},
		{Stream: hot, Spec: testSpec()},
	}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var resp BatchResponse
			if code := doJSON(t, s, http.MethodPost, "/v1/decide-batch", breq, &resp); code != http.StatusOK {
				t.Errorf("round %d: batch status %d", i, code)
				return
			}
			if len(resp.Results) != len(breq.Requests) {
				t.Errorf("round %d: %d results, want %d", i, len(resp.Results), len(breq.Requests))
				return
			}
			for j, r := range resp.Results {
				if r.Estimate.LatMeanS <= 0 {
					t.Errorf("round %d result %d lost to a concurrent evict: %+v", i, j, r)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if code := doJSON(t, s, http.MethodDelete, fmt.Sprintf("/v1/streams/%d", hot), nil, nil); code != http.StatusOK {
				t.Errorf("round %d: evict status %d", i, code)
				return
			}
		}
	}()
	wg.Wait()

	var stats StatsResponse
	doJSON(t, s, http.MethodGet, "/v1/stats", nil, &stats)
	var streams StreamsResponse
	doJSON(t, s, http.MethodGet, "/v1/streams", nil, &streams)
	if int64(streams.Count) != stats.Serve.Streams {
		t.Errorf("streams gauge %d != live table %d", stats.Serve.Streams, streams.Count)
	}
	if stats.Net.Batches != rounds || stats.Net.BatchDecisions != rounds*3 {
		t.Errorf("batch counters %d/%d, want %d/%d", stats.Net.Batches, stats.Net.BatchDecisions, rounds, rounds*3)
	}
	if stats.Net.Evictions != rounds {
		t.Errorf("evictions = %d, want %d", stats.Net.Evictions, rounds)
	}
}
