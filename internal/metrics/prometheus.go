package metrics

import (
	"fmt"
	"io"
	"time"
)

// WritePrometheus renders the serving counters in Prometheus text
// exposition format (version 0.0.4) — the GET /metrics surface of
// internal/netserve. serve counts what the stream table served, net what
// the HTTP surface saw, bin (nil when no binary listener is attached)
// what the binary wire listener saw, and ov (nil when the server has no
// admission gate) the adaptive gate's live state. Rendered by hand: the
// format is a few comment lines plus name/value pairs, and the
// alternative is a client-library dependency for what amounts to
// fmt.Fprintf.
func WritePrometheus(w io.Writer, serve ServeSnapshot, net NetSnapshot, bin *BinSnapshot, ov *OverloadSnapshot) {
	counter := func(name, help string, v int64) { promCounter(w, name, help, v) }
	gauge := func(name, help string, v float64) { promGauge(w, name, help, v) }
	secs := func(d time.Duration) float64 { return d.Seconds() }

	// Stream-table (engine) counters.
	counter("alert_serve_decisions_total", "Decisions served by the stream table.", serve.Decisions)
	counter("alert_serve_observes_total", "Feedback observations folded into sessions.", serve.Observes)
	counter("alert_serve_batches_total", "Grouped dispatches: DecideBatch calls and transport bursts.", serve.Batches)
	counter("alert_serve_candidates_scored_total", "Candidates the decision scans scored in full (not pruned).", serve.CandidatesScored)
	counter("alert_serve_infeasible_fallbacks_total", "Decisions that found no feasible candidate and served the fallback.", serve.InfeasibleFallbacks)
	counter("alert_serve_stream_exports_total", "Sessions migrated out of the stream table.", serve.StreamExports)
	counter("alert_serve_stream_imports_total", "Sessions migrated into the stream table.", serve.StreamImports)
	gauge("alert_serve_streams", "Live per-stream sessions.", float64(serve.Streams))
	gauge("alert_serve_session_bytes", "Aggregate in-memory session footprint.", float64(serve.SessionBytes))
	gauge("alert_serve_decide_latency_avg_seconds", "Mean end-to-end decide latency.", secs(serve.AvgDecideLatency))
	gauge("alert_serve_decide_latency_max_seconds", "Max end-to-end decide latency.", secs(serve.MaxDecideLatency))
	gauge("alert_serve_queue_delay_avg_seconds", "Mean in-pool queue delay (submit to worker pickup).", secs(serve.AvgQueueDelay))
	gauge("alert_serve_queue_delay_max_seconds", "Max in-pool queue delay.", secs(serve.MaxQueueDelay))
	gauge("alert_serve_uptime_seconds", "Time since the serve counters started.", secs(serve.Uptime))

	// HTTP front-end counters: the shared transport families, then what
	// only HTTP counts.
	net.writePrometheus(w, "alert_http")
	counter("alert_http_reads_total", "Ungated reads: stats, metrics, streams, membership, replicas.", net.Reads)
	counter("alert_http_bad_requests_total", "Malformed requests.", net.BadRequests)
	gauge("alert_http_request_latency_avg_seconds", "Mean decide/batch handler latency.", secs(net.AvgRequestLatency))
	gauge("alert_http_request_latency_max_seconds", "Max decide/batch handler latency.", secs(net.MaxRequestLatency))

	if ov != nil {
		// Adaptive admission gate state.
		b2i := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		gauge("alert_overload_adaptive", "1 when the measured-delay controller may move the limits.", b2i(ov.Adaptive))
		gauge("alert_overload_slo_shed", "1 when hopeless-deadline shedding is enabled.", b2i(ov.SLOShed))
		gauge("alert_overload_inflight_limit", "Effective inflight limit right now.", float64(ov.InflightLimit))
		gauge("alert_overload_queue_limit", "Effective admission queue limit right now.", float64(ov.QueueLimit))
		gauge("alert_overload_inflight", "Requests holding a gate slot.", float64(ov.Inflight))
		gauge("alert_overload_queued", "Requests waiting at the gate.", float64(ov.Queued))
		gauge("alert_overload_queue_delay_ewma_seconds", "EWMA of observed admission queue delay.", secs(ov.QueueDelayEWMA))
		gauge("alert_overload_queue_delay_p50_seconds", "Median observed admission queue delay.", secs(ov.QueueDelayP50))
		gauge("alert_overload_queue_delay_p95_seconds", "95th-percentile observed admission queue delay.", secs(ov.QueueDelayP95))
		gauge("alert_overload_queue_delay_p99_seconds", "99th-percentile observed admission queue delay.", secs(ov.QueueDelayP99))
		gauge("alert_overload_service_ewma_seconds", "EWMA of engine decide service time.", secs(ov.ServiceEWMA))
		gauge("alert_overload_headroom_ewma_seconds", "EWMA of per-request deadline headroom.", secs(ov.HeadroomEWMA))
		gauge("alert_overload_retry_after_seconds", "Current drain estimate hinted on rejections.", secs(ov.RetryAfterHint))
		counter("alert_overload_limit_increases_total", "Control-loop limit increases.", ov.LimitIncreases)
		counter("alert_overload_limit_decreases_total", "Control-loop limit decreases.", ov.LimitDecreases)
		counter("alert_overload_shed_hopeless_total", "Requests shed because their deadline was predicted unmeetable.", ov.ShedHopeless)
		counter("alert_overload_shed_overload_total", "Requests shed because the admission queue was full.", ov.ShedOverload)
		counter("alert_overload_shed_deadline_total", "Requests whose deadline expired while queued.", ov.ShedDeadline)
		counter("alert_overload_shed_draining_total", "Requests refused during shutdown drain.", ov.ShedDraining)
	}

	if bin == nil {
		return
	}
	// Binary wire listener counters: the same shared families, then
	// connections, frames and bursts.
	bin.writePrometheus(w, "alert_binwire")
	counter("alert_binwire_conns_opened_total", "Accepted binary connections.", bin.ConnsOpened)
	counter("alert_binwire_conns_closed_total", "Closed binary connections.", bin.ConnsClosed)
	gauge("alert_binwire_conns", "Live binary connections.", float64(bin.ConnsOpened-bin.ConnsClosed))
	counter("alert_binwire_frames_in_total", "Frames read from binary connections.", bin.FramesIn)
	counter("alert_binwire_frames_out_total", "Frames written to binary connections.", bin.FramesOut)
	counter("alert_binwire_coalesce_flushes_total", "Per-connection bursts that served more than one decide.", bin.CoalesceFlushes)
	counter("alert_binwire_coalesced_total", "Decide frames served inside multi-decide bursts.", bin.Coalesced)
	counter("alert_binwire_bad_frames_total", "Frames that parsed but could not be served.", bin.BadFrames)
	gauge("alert_binwire_decide_latency_avg_seconds", "Mean decide/batch latency, frame decode to accounting.", secs(bin.AvgDecideLatency))
	gauge("alert_binwire_decide_latency_max_seconds", "Max decide/batch latency, frame decode to accounting.", secs(bin.MaxDecideLatency))
}

func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}
