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
	if s.Exports != 1 || s.Imports != 1 || s.Evictions != 1 {
		t.Errorf("stream ops = %+v", s)
	}
	// A batch folds into the latency pair exactly as on HTTP.
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

// TestBinSnapshotJSONRoundTrip pins the binwire counter snapshot's
// wire contract (it rides inside GET /v1/stats) the same way the serve and
// net snapshots are pinned.
// TestRecordDecidesCounted: one RecordDecides call settles n single decides
// of one latency (a binwire burst) as n requests, each weighing in the
// latency mean, while a batch of n stays one request; the serve layer's
// counted form does the same for a shard group.
func TestRecordDecidesCounted(t *testing.T) {
	c := NewBinCounters()
	c.RecordDecides(OpDecide, 3, 10*time.Millisecond)
	c.RecordDecides(OpBatch, 64, 30*time.Millisecond)
	s := c.Snapshot()
	if s.Decides != 3 || s.Batches != 1 || s.BatchDecisions != 64 {
		t.Errorf("ops = %d decides, %d batches of %d decisions; want 3, 1, 64", s.Decides, s.Batches, s.BatchDecisions)
	}
	if s.AvgDecideLatency != 15*time.Millisecond || s.MaxDecideLatency != 30*time.Millisecond {
		t.Errorf("latency avg %v max %v, want 15ms and 30ms", s.AvgDecideLatency, s.MaxDecideLatency)
	}

	sc := NewServeCounters()
	sc.RecordDecides(4, 2*time.Millisecond)
	sc.RecordDecides(1, 6*time.Millisecond)
	ss := sc.Snapshot()
	if ss.Decisions != 5 || ss.AvgDecideLatency != 2800*time.Microsecond || ss.MaxDecideLatency != 6*time.Millisecond {
		t.Errorf("serve: %d decisions, avg %v, max %v; want 5, 2.8ms, 6ms", ss.Decisions, ss.AvgDecideLatency, ss.MaxDecideLatency)
	}
}

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
		"exports", "imports", "evictions",
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
	net := NetSnapshot{TransportSnapshot: TransportSnapshot{Decides: 5, RejectedOverload: 2, Exports: 1}}
	bin := BinSnapshot{ConnsOpened: 4, ConnsClosed: 1, TransportSnapshot: TransportSnapshot{Decides: 9, Exports: 2}, Coalesced: 6}

	ov := OverloadSnapshot{InflightLimit: 8, QueueLimit: 16, ShedOverload: 3}

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
		"# TYPE alert_http_exports_total counter\nalert_http_exports_total 1\n",
		"alert_binwire_exports_total 2\n",
		"# TYPE alert_binwire_conns gauge\nalert_binwire_conns 3\n",
		"alert_binwire_decides_total 9\n",
		"alert_binwire_coalesced_total 6\n",
		"# TYPE alert_overload_inflight_limit gauge\nalert_overload_inflight_limit 8\n",
		"alert_overload_queue_limit 16\n",
		"alert_overload_shed_overload_total 3\n",
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
		t.Error("binwire families rendered without a binwire snapshot")
	}
	if strings.Contains(sb.String(), "alert_overload_") {
		t.Error("overload families rendered without a gate snapshot")
	}
}
