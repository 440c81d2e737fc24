package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBinCountersAggregate folds a small workload through every Record
// method and checks the snapshot adds up.
func TestBinCountersAggregate(t *testing.T) {
	c := NewBinCounters()
	c.RecordConnOpen()
	c.RecordConnOpen()
	c.RecordConnClose()
	for i := 0; i < 5; i++ {
		c.RecordFrameIn()
	}
	c.RecordFramesOut(2)
	c.RecordFramesOut(3)
	c.RecordDecides(OpDecide, 1, 10*time.Millisecond)
	c.RecordDecides(OpBatch, 64, 30*time.Millisecond)
	c.RecordOp(OpObserve)
	c.RecordCoalesce(2)
	c.RecordOp(OpExport)
	c.RecordOp(OpCheckpoint)
	c.RecordOp(OpImport)
	c.RecordOp(OpEvict)
	c.RecordReject(RejectOverload)
	c.RecordReject(RejectDeadline)
	c.RecordReject(RejectDraining)
	c.RecordReject(RejectRestoring)
	c.RecordBadInput()

	s := c.Snapshot()
	if s.ConnsOpened != 2 || s.ConnsClosed != 1 {
		t.Errorf("conns = %d/%d", s.ConnsOpened, s.ConnsClosed)
	}
	if s.FramesIn != 5 || s.FramesOut != 5 {
		t.Errorf("frames = %d/%d", s.FramesIn, s.FramesOut)
	}
	if s.Decides != 1 || s.Observes != 1 || s.Batches != 1 || s.BatchDecisions != 64 {
		t.Errorf("ops = %+v", s)
	}
	if s.CoalesceFlushes != 1 || s.Coalesced != 2 {
		t.Errorf("coalesce = %d/%d", s.Coalesced, s.CoalesceFlushes)
	}
	if s.RejectedOverload != 1 || s.RejectedDeadline != 1 || s.RejectedDraining != 1 || s.RejectedRestoring != 1 || s.BadFrames != 1 {
		t.Errorf("rejections = %+v", s)
	}
	if s.Exports != 1 || s.Checkpoints != 1 || s.Imports != 1 || s.Evictions != 1 {
		t.Errorf("stream ops = %+v", s)
	}
	// Batch frames fold into the latency pair exactly like HTTP's.
	if s.AvgDecideLatency != 20*time.Millisecond {
		t.Errorf("avg latency = %v, want 20ms", s.AvgDecideLatency)
	}
	if s.MaxDecideLatency != 30*time.Millisecond {
		t.Errorf("max latency = %v, want 30ms", s.MaxDecideLatency)
	}
	if s.Uptime <= 0 {
		t.Errorf("uptime = %v", s.Uptime)
	}
	if str := s.String(); !strings.Contains(str, "decides=1") {
		t.Errorf("String() = %q", str)
	}
}

// TestBinSnapshotJSONRoundTrip pins the binary listener's counter snapshot
// wire contract (it rides inside GET /v1/stats) the same way the serve and
// net snapshots are pinned.
func TestBinSnapshotJSONRoundTrip(t *testing.T) {
	in := BinSnapshot{
		ConnsOpened: 10,
		ConnsClosed: 4,
		FramesIn:    5000,
		FramesOut:   4998,
		TransportSnapshot: TransportSnapshot{
			Decides:           2400,
			Observes:          2400,
			Batches:           3,
			BatchDecisions:    192,
			Exports:           2,
			Checkpoints:       7,
			Imports:           2,
			Evictions:         1,
			RejectedOverload:  13,
			RejectedDeadline:  1,
			RejectedDraining:  2,
			RejectedRestoring: 1,
		},
		CoalesceFlushes:  120,
		Coalesced:        900,
		BadFrames:        1,
		AvgDecideLatency: 80 * time.Microsecond,
		MaxDecideLatency: 9 * time.Millisecond,
		Uptime:           time.Hour,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out BinSnapshot
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the snapshot:\n in: %+v\nout: %+v", in, out)
	}

	assertJSONKeys(t, b, []string{
		"conns_opened", "conns_closed", "frames_in", "frames_out",
		"decides", "observes", "batches", "batch_decisions",
		"coalesce_flushes", "coalesced",
		"exports", "checkpoints", "imports", "evictions",
		"rejected_overload", "rejected_deadline", "rejected_draining",
		"rejected_restoring", "bad_frames",
		"avg_decide_latency_ns", "max_decide_latency_ns", "uptime_ns",
	})
}

// TestWritePrometheus checks the exposition output is well-formed enough
// for a scraper: every family has HELP and TYPE lines, the values land,
// and the binary families appear only when a binary snapshot is present.
func TestWritePrometheus(t *testing.T) {
	serve := ServeSnapshot{Decisions: 7, Streams: 3, CandidatesScored: 182, InfeasibleFallbacks: 1}
	net := NetSnapshot{TransportSnapshot: TransportSnapshot{Decides: 5, RejectedOverload: 2, Checkpoints: 1}}
	bin := BinSnapshot{ConnsOpened: 4, ConnsClosed: 1, TransportSnapshot: TransportSnapshot{Decides: 9, Checkpoints: 2}, Coalesced: 6}

	ov := OverloadSnapshot{Adaptive: true, InflightLimit: 8, QueueLimit: 16, ShedHopeless: 3}

	var sb strings.Builder
	WritePrometheus(&sb, serve, net, &bin, &ov)
	out := sb.String()
	for _, want := range []string{
		"# TYPE alert_serve_decisions_total counter\nalert_serve_decisions_total 7\n",
		"# TYPE alert_serve_candidates_scored_total counter\nalert_serve_candidates_scored_total 182\n",
		"# TYPE alert_serve_infeasible_fallbacks_total counter\nalert_serve_infeasible_fallbacks_total 1\n",
		"# TYPE alert_serve_streams gauge\nalert_serve_streams 3\n",
		"# TYPE alert_http_decides_total counter\nalert_http_decides_total 5\n",
		"alert_http_rejected_overload_total 2\n",
		"# TYPE alert_http_checkpoints_total counter\nalert_http_checkpoints_total 1\n",
		"alert_binwire_checkpoints_total 2\n",
		"# TYPE alert_binwire_conns gauge\nalert_binwire_conns 3\n",
		"alert_binwire_decides_total 9\n",
		"alert_binwire_coalesced_total 6\n",
		"# TYPE alert_overload_adaptive gauge\nalert_overload_adaptive 1\n",
		"alert_overload_inflight_limit 8\n",
		"alert_overload_queue_limit 16\n",
		"alert_overload_shed_hopeless_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "# ") && !strings.HasPrefix(line, "alert_") {
			t.Errorf("stray exposition line %q", line)
		}
	}

	sb.Reset()
	WritePrometheus(&sb, serve, net, nil, nil)
	if strings.Contains(sb.String(), "alert_binwire_") {
		t.Error("binary families rendered without a binary listener")
	}
	if strings.Contains(sb.String(), "alert_overload_") {
		t.Error("overload families rendered without a gate snapshot")
	}
}
