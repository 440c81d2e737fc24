package main

import (
	"math"

	"github.com/alert-project/alert/internal/mathx"
)

// metricDef names one published number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; the same list on every
// workload. Failed loops are not a metric here: they are the result line's
// failed/attempted pair, and any at all makes the run incorrect. The timing
// bounds are over three times the widest quartile spread over ten seeds on
// the 2-core VM the benchmark was defined on, and wider than the 8-10 % that
// box drifted within an hour (bench/README.md has both tables).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "loops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "decide_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "decide_p95_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "cpu_us_per_loop", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "heap_bytes_per_stream", Unit: "B", Better: "lower", Bound: 0.06},
	{Name: "sim_energy_j_per_input", Unit: "J", Better: "lower", Bound: 0.01},
}

// perLayer is measured from outside each layer: public-API probes on the
// generated inputs plus before/after deltas of the exported counters.
// bench/README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "core.decide_us", Unit: "us", Better: "lower"},
	{Name: "core.observe_us", Unit: "us", Better: "lower"},
	{Name: "core.candidates", Unit: "count", Better: "lower"},
	{Name: "core.ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "core.session_bytes", Unit: "B", Better: "lower"},

	{Name: "serve.decide_us", Unit: "us", Better: "lower"},
	{Name: "serve.observe_us", Unit: "us", Better: "lower"},
	{Name: "serve.hop_us", Unit: "us", Better: "lower"},
	{Name: "serve.inproc_loops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.queue_delay_avg_us", Unit: "us", Better: "lower"},
	{Name: "serve.decisions", Unit: "count", Better: "higher"},
	{Name: "serve.observes", Unit: "count", Better: "higher"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.session_bytes_per_stream", Unit: "B", Better: "lower"},

	{Name: "overload.admit_release_ns", Unit: "ns", Better: "lower"},
	{Name: "overload.queue_delay_p95_us", Unit: "us", Better: "lower"},
	{Name: "overload.shed_total", Unit: "count", Better: "lower"},
	{Name: "overload.inflight_limit", Unit: "count", Better: "higher"},

	{Name: "netserve.bin_coalesced_per_flush", Unit: "count", Better: "higher"},
	{Name: "netserve.bin_coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "netserve.bin_frames_in", Unit: "count", Better: "higher"},
	{Name: "netserve.bin_frames_out", Unit: "count", Better: "higher"},
	{Name: "netserve.bin_decide_avg_us", Unit: "us", Better: "lower"},
	{Name: "netserve.bin_raw_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netserve.bin_allocs_per_decide", Unit: "count", Better: "lower"},
	{Name: "netserve.http_decide_us", Unit: "us", Better: "lower"},
	{Name: "netserve.http_batch64_us", Unit: "us", Better: "lower"},
	{Name: "netserve.http_observe_us", Unit: "us", Better: "lower"},
	{Name: "netserve.http_allocs_per_batch64", Unit: "count", Better: "lower"},
	{Name: "netserve.http_request_avg_us", Unit: "us", Better: "lower"},
	{Name: "netserve.rejected_total", Unit: "count", Better: "lower"},

	{Name: "binwire.encode_decide_ns", Unit: "ns", Better: "lower"},
	{Name: "binwire.decode_decide_ns", Unit: "ns", Better: "lower"},
	{Name: "binwire.encode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "binwire.decode_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "binwire.frame_bytes_decide", Unit: "B", Better: "lower"},
	{Name: "binwire.frame_bytes_resp", Unit: "B", Better: "lower"},

	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "client.observe_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.decide_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.decide_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.stall_share", Unit: "ratio", Better: "lower"},

	{Name: "proc.allocs_per_loop", Unit: "count", Better: "lower"},
	{Name: "proc.sys_cpu_us_per_loop", Unit: "us", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},

	{Name: "loadgen.sim_us_per_loop", Unit: "us", Better: "lower"},
	{Name: "loadgen.window_spread", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.sim_violation_share", Unit: "ratio", Better: "lower"},
	{Name: "yardstick.naive_decide_us", Unit: "us", Better: "lower"},

	{Name: "budget.core_us", Unit: "us", Better: "lower"},
	{Name: "budget.serve_us", Unit: "us", Better: "lower"},
	{Name: "budget.netserve_us", Unit: "us", Better: "lower"},
	{Name: "budget.binwire_us", Unit: "us", Better: "lower"},
	{Name: "budget.client_us", Unit: "us", Better: "lower"},
	{Name: "budget.loopback_us", Unit: "us", Better: "lower"},
	{Name: "budget.total_us", Unit: "us", Better: "lower"},
	{Name: "budget.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// stallUS is the decide latency past which a sample counts as a stall (the
// ~4 ms mode p99 sits on at saturation).
const stallUS = 2000

// windowStats are one window's timing values.
type windowStats struct {
	loopsPerS, p50, p95, cpuPerLoop float64
}

// windows reduces the timed interval to per-window values.
func (r *rig) windows(t *timed) []windowStats {
	out := make([]windowStats, t.clock.n)
	for w := range out {
		loops, lat := r.window(w)
		out[w] = windowStats{
			loopsPerS:  loops / t.clock.win.Seconds(),
			p50:        mathx.Percentile(lat, 50),
			p95:        mathx.Percentile(lat, 95),
			cpuPerLoop: (t.cpu[w+1] - t.cpu[w]) / loops,
		}
	}
	return out
}

func medianOf(ws []windowStats, f func(windowStats) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// simStats sums the drivers' first loops; it fails when a driver finished
// too few for the mean to cover the same inputs on every run.
func (r *rig) simStats() (energyPerInput, violationShare float64, short bool) {
	var n, viol int
	var energy float64
	for _, d := range r.drivers {
		if d.simN < d.simLoops {
			short = true
		}
		n += d.simN
		viol += d.simViol
		energy += d.simEnergy
	}
	return energy / float64(n), float64(viol) / float64(n), short
}

// endToEndMetrics reduces an untraced run to the published numbers.
func (r *rig) endToEndMetrics(t *timed, setupS float64) map[string]float64 {
	ws := r.windows(t)
	energy, _, _ := r.simStats()
	return map[string]float64{
		"setup_s":                setupS,
		"loops_per_s":            medianOf(ws, func(w windowStats) float64 { return w.loopsPerS }),
		"decide_p50_us":          medianOf(ws, func(w windowStats) float64 { return w.p50 }),
		"decide_p95_us":          medianOf(ws, func(w windowStats) float64 { return w.p95 }),
		"cpu_us_per_loop":        medianOf(ws, func(w windowStats) float64 { return w.cpuPerLoop }),
		"heap_bytes_per_stream":  r.heapPerStream,
		"sim_energy_j_per_input": energy,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runMetrics reduces a traced run's samples and counter deltas to the
// per-layer numbers that come from the run itself (the probes add theirs).
func (r *rig) runMetrics(t *timed, m map[string]float64) {
	ws := r.windows(t)
	var untraced, tracedW []windowStats
	for w, s := range ws {
		if t.clock.tracing(w) {
			tracedW = append(tracedW, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	lps := func(w windowStats) float64 { return w.loopsPerS }
	base := medianOf(untraced, lps)
	m["trace_overhead"] = 1 - medianOf(tracedW, lps)/base
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, w := range untraced {
		lo, hi = math.Min(lo, w.loopsPerS), math.Max(hi, w.loopsPerS)
	}
	m["loadgen.window_spread"] = (hi - lo) / base

	var lat, obs []float64
	stalls := 0
	for _, d := range r.drivers {
		for _, ns := range d.lat[d.bounds[0]:d.bounds[t.clock.n]] {
			us := float64(ns) / 1e3
			lat = append(lat, us)
			if us > stallUS {
				stalls++
			}
		}
		for _, ns := range d.obs {
			obs = append(obs, float64(ns)/1e3)
		}
	}
	m["client.decide_p99_us"] = mathx.Percentile(lat, 99)
	m["client.decide_p999_us"] = mathx.Percentile(lat, 99.9)
	m["client.stall_share"] = ratio(float64(stalls), float64(len(lat)))
	m["client.observe_p50_us"] = mathx.Percentile(obs, 50)

	a, b := t.before, t.after
	loops := float64(t.loops)
	m["serve.decisions"] = float64(b.serve.Decisions - a.serve.Decisions)
	m["serve.observes"] = float64(b.serve.Observes - a.serve.Observes)
	m["serve.batches"] = float64(b.serve.Batches - a.serve.Batches)
	m["serve.queue_delay_avg_us"] = micros(b.serve.AvgQueueDelay)
	m["serve.session_bytes_per_stream"] = ratio(float64(b.serve.SessionBytes), float64(b.serve.Streams))

	m["overload.queue_delay_p95_us"] = micros(b.over.QueueDelayP95)
	m["overload.shed_total"] = float64((b.over.ShedHopeless + b.over.ShedOverload + b.over.ShedDeadline + b.over.ShedDraining) -
		(a.over.ShedHopeless + a.over.ShedOverload + a.over.ShedDeadline + a.over.ShedDraining))
	m["overload.inflight_limit"] = float64(b.over.InflightLimit)

	coalesced := float64(b.bin.Coalesced - a.bin.Coalesced)
	m["netserve.bin_coalesced_per_flush"] = ratio(coalesced, float64(b.bin.CoalesceFlushes-a.bin.CoalesceFlushes))
	m["netserve.bin_coalesced_share"] = ratio(coalesced, float64(b.bin.Decides-a.bin.Decides))
	m["netserve.bin_frames_in"] = float64(b.bin.FramesIn - a.bin.FramesIn)
	m["netserve.bin_frames_out"] = float64(b.bin.FramesOut - a.bin.FramesOut)
	m["netserve.bin_decide_avg_us"] = micros(b.bin.AvgDecideLatency)
	m["netserve.http_request_avg_us"] = micros(b.net.AvgRequestLatency)
	rejected := func(c counters) int64 {
		return c.net.RejectedOverload + c.net.RejectedDeadline + c.net.RejectedDraining + c.net.RejectedRestoring + c.net.RejectedHopeless +
			c.bin.RejectedOverload + c.bin.RejectedDeadline + c.bin.RejectedDraining + c.bin.RejectedRestoring + c.bin.RejectedHopeless
	}
	m["netserve.rejected_total"] = float64(rejected(b) - rejected(a))

	m["proc.allocs_per_loop"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), loops)
	m["proc.sys_cpu_us_per_loop"] = ratio(tvMicros(b.ru.Stime)-tvMicros(a.ru.Stime), loops)
	m["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["proc.gc_pause_total_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["proc.rss_peak_mb"] = float64(b.ru.Maxrss) / 1024 // Linux reports KiB
}
