package netserve

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

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
