package metrics

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestServeSnapshotJSONRoundTrip: ServeSnapshot is the GET /v1/stats wire
// payload, so it must marshal with the documented stable field names and
// survive a marshal/unmarshal round trip unchanged.
func TestServeSnapshotJSONRoundTrip(t *testing.T) {
	in := ServeSnapshot{
		Decisions:           12345,
		Observes:            678,
		Batches:             9,
		CandidatesScored:    12345 * 26,
		InfeasibleFallbacks: 3,
		Streams:             42,
		SessionBytes:        42 * 184,
		StreamExports:       6,
		StreamImports:       4,
		AvgDecideLatency:    1234 * time.Nanosecond,
		MaxDecideLatency:    5 * time.Millisecond,
		Uptime:              3 * time.Hour,
		DecidesPerSec:       1.25e6,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ServeSnapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the snapshot:\n in: %+v\nout: %+v", in, out)
	}

	assertJSONKeys(t, b, []string{
		"decisions", "observes", "batches",
		"candidates_scored", "infeasible_fallbacks",
		"streams", "session_bytes",
		"stream_exports", "stream_imports",
		"avg_decide_latency_ns", "max_decide_latency_ns", "uptime_ns",
		"decides_per_sec",
	})
}

// TestNetSnapshotJSONRoundTrip pins the front-end counter snapshot's wire
// contract the same way.
func TestNetSnapshotJSONRoundTrip(t *testing.T) {
	in := NetSnapshot{
		TransportSnapshot: TransportSnapshot{
			Decides:          100,
			Batches:          7,
			BatchDecisions:   448,
			Observes:         99,
			Evictions:        2,
			Exports:          8,
			Checkpoints:      9,
			Imports:          6,
			RejectedOverload: 11,
			RejectedDeadline: 1,
			RejectedDraining: 4,
		},
		Reads:             3,
		BadRequests:       5,
		AvgRequestLatency: 80 * time.Microsecond,
		MaxRequestLatency: 9 * time.Millisecond,
		Uptime:            time.Minute,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out NetSnapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the snapshot:\n in: %+v\nout: %+v", in, out)
	}

	assertJSONKeys(t, b, []string{
		"decides", "batches", "batch_decisions", "observes", "reads",
		"evictions", "exports", "checkpoints", "imports", "rejected_overload",
		"rejected_deadline", "rejected_draining", "bad_requests",
		"avg_request_latency_ns", "max_request_latency_ns", "uptime_ns",
	})
}

// assertJSONKeys checks the marshaled object carries exactly the expected
// key set — a renamed or dropped field is a wire-contract break, not a
// refactor.
func assertJSONKeys(t *testing.T, b []byte, want []string) {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("marshaled snapshot lacks stable key %q", k)
		}
	}
	if len(m) != len(want) {
		t.Errorf("marshaled snapshot has %d keys, want %d: %v", len(m), len(want), m)
	}
}

// TestNetCountersRecording: the recording methods move the snapshot the way
// the handler layer assumes.
func TestNetCountersRecording(t *testing.T) {
	c := NewNetCounters()
	c.RecordDecides(OpDecide, 1, 10*time.Microsecond)
	c.RecordDecides(OpDecide, 1, 30*time.Microsecond)
	c.RecordDecides(OpBatch, 64, 2*time.Millisecond)
	c.RecordOp(OpObserve)
	c.RecordRead()
	c.RecordOp(OpEvict)
	c.RecordOp(OpCheckpoint)
	c.RecordReject(RejectOverload)
	c.RecordReject(RejectDeadline)
	c.RecordReject(RejectDraining)
	c.RecordBadInput()

	s := c.Snapshot()
	if s.Decides != 2 || s.Batches != 1 || s.BatchDecisions != 64 || s.Observes != 1 {
		t.Errorf("traffic counters wrong: %+v", s)
	}
	if s.Reads != 1 || s.Evictions != 1 || s.Checkpoints != 1 || s.RejectedOverload != 1 ||
		s.RejectedDeadline != 1 || s.RejectedDraining != 1 || s.BadRequests != 1 {
		t.Errorf("bookkeeping counters wrong: %+v", s)
	}
	if s.MaxRequestLatency != 2*time.Millisecond {
		t.Errorf("max latency = %s, want 2ms", s.MaxRequestLatency)
	}
	// Avg over the three latency-carrying requests: (10µs+30µs+2ms)/3.
	if want := (10*time.Microsecond + 30*time.Microsecond + 2*time.Millisecond) / 3; s.AvgRequestLatency != want {
		t.Errorf("avg latency = %s, want %s", s.AvgRequestLatency, want)
	}
	if s.Uptime <= 0 {
		t.Errorf("uptime = %s, want positive", s.Uptime)
	}
}
