package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/overload"
)

// layerOps is one depth of the stack as the probes call it from outside.
// Each call returns the time spent inside the layer; request encoding the
// real caller would have done one layer up stays off the clock.
type layerOps struct {
	name    string
	decide  func(stream int, spec alert.Spec) (alert.Decision, time.Duration, error)
	observe func(stream int, fb alert.Feedback) (time.Duration, error)
	batch   func(reqs []alert.BatchRequest) ([]alert.Decision, time.Duration, error)
}

// coreOps is the innermost depth: one solo alert.Scheduler (a core.Session
// on a private engine) per stream, created off the clock.
func coreOps(w workloadDef, opts alert.Options) layerOps {
	scheds := map[int]*alert.Scheduler{}
	get := func(stream int) (*alert.Scheduler, error) {
		if s, ok := scheds[stream]; ok {
			return s, nil
		}
		s, err := alert.NewScheduler(w.Platform(), w.models(), opts)
		scheds[stream] = s
		return s, err
	}
	ops := layerOps{name: "core"}
	ops.decide = func(stream int, spec alert.Spec) (alert.Decision, time.Duration, error) {
		s, err := get(stream)
		if err != nil {
			return alert.Decision{}, 0, err
		}
		t := time.Now()
		d, _ := s.Decide(spec)
		return d, time.Since(t), nil
	}
	ops.observe = func(stream int, fb alert.Feedback) (time.Duration, error) {
		s, err := get(stream)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		s.Observe(fb)
		return time.Since(t), nil
	}
	ops.batch = func(reqs []alert.BatchRequest) ([]alert.Decision, time.Duration, error) {
		out := make([]alert.Decision, len(reqs))
		var sum time.Duration
		for k, rq := range reqs {
			d, el, err := ops.decide(rq.Stream, rq.Spec)
			if err != nil {
				return nil, 0, err
			}
			out[k], sum = d, sum+el
		}
		return out, sum, nil
	}
	return ops
}

// backendOps times a backend's calls whole: alert.Server in process, or a
// client over the wire.
func backendOps(name string, b backend) layerOps {
	return layerOps{
		name: name,
		decide: func(stream int, spec alert.Spec) (alert.Decision, time.Duration, error) {
			t := time.Now()
			d, err := b.Decide(stream, spec)
			return d, time.Since(t), err
		},
		observe: func(stream int, fb alert.Feedback) (time.Duration, error) {
			t := time.Now()
			err := b.Observe(stream, fb)
			return time.Since(t), err
		},
		batch: func(reqs []alert.BatchRequest) ([]alert.Decision, time.Duration, error) {
			t := time.Now()
			res, err := b.DecideBatch(reqs)
			el := time.Since(t)
			out := make([]alert.Decision, len(res))
			for k, r := range res {
				out[k] = r.Decision
			}
			return out, el, err
		},
	}
}

// rawBinOps speaks pre-encoded binwire frames on one raw TCP connection to
// the real listener: the server's whole cost per frame plus loopback, with
// no client library.
func rawBinOps(conn net.Conn) layerOps {
	rd := binwire.NewReader(conn)
	var buf []byte
	var id uint64
	roundTrip := func(frame []byte, want binwire.MsgType) (binwire.Frame, time.Duration, error) {
		t := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return binwire.Frame{}, 0, err
		}
		f, err := rd.Next()
		el := time.Since(t)
		if err == nil && f.Type != want {
			err = fmt.Errorf("raw binwire: frame type %d, want %d", f.Type, want)
		}
		return f, el, err
	}
	return layerOps{
		name: "netserve",
		decide: func(stream int, spec alert.Spec) (alert.Decision, time.Duration, error) {
			id++
			buf = binwire.AppendDecide(buf[:0], id, stream, spec)
			f, el, err := roundTrip(buf, binwire.MsgDecideResp)
			if err != nil {
				return alert.Decision{}, 0, err
			}
			d, _, _, err := binwire.DecodeDecideResp(f.Body)
			return d, el, err
		},
		observe: func(stream int, fb alert.Feedback) (time.Duration, error) {
			id++
			buf = binwire.AppendObserve(buf[:0], id, stream, fb)
			_, el, err := roundTrip(buf, binwire.MsgObserveResp)
			return el, err
		},
	}
}

// httpOps calls the front end's ServeHTTP on a ResponseRecorder: the JSON
// codec, the gate and the handler, with no socket and no net/http server.
func httpOps(front *netserve.Server) layerOps {
	post := func(path string, in, out any) (time.Duration, error) {
		body, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		front.ServeHTTP(rec, req)
		el := time.Since(t)
		if rec.Code/100 != 2 {
			return 0, fmt.Errorf("ServeHTTP %s: %d %s", path, rec.Code, rec.Body.String())
		}
		if out != nil {
			err = json.Unmarshal(rec.Body.Bytes(), out)
		}
		return el, err
	}
	return layerOps{
		name: "netserve",
		decide: func(stream int, spec alert.Spec) (alert.Decision, time.Duration, error) {
			var out netserve.DecideResponse
			el, err := post("/v1/decide", netserve.DecideRequest{Stream: stream, Spec: netserve.FromSpec(spec)}, &out)
			return out.Decision.ToDecision(), el, err
		},
		observe: func(stream int, fb alert.Feedback) (time.Duration, error) {
			return post("/v1/observe", netserve.ObserveRequest{Stream: stream, Feedback: netserve.FromFeedback(fb)}, nil)
		},
		batch: func(reqs []alert.BatchRequest) ([]alert.Decision, time.Duration, error) {
			in := netserve.BatchRequest{Requests: make([]netserve.DecideRequest, len(reqs))}
			for k, rq := range reqs {
				in.Requests[k] = netserve.DecideRequest{Stream: rq.Stream, Spec: netserve.FromSpec(rq.Spec)}
			}
			var out netserve.BatchResponse
			el, err := post("/v1/decide-batch", in, &out)
			ds := make([]alert.Decision, len(out.Results))
			for k, r := range out.Results {
				ds[k] = r.Decision.ToDecision()
			}
			return ds, el, err
		},
	}
}

// replayed is what one serial replay of a script through one depth took:
// one entry per decide call (per batch for batch replays) and per observe.
type replayed struct {
	decideUS, observeUS []float64
	// spanIDs[k] is the k-th decide call's span, the parent of the same
	// loop's span one depth down.
	spanIDs []uint64
}

// replay drives the script's first loops serially through ops with a fresh
// environment, so every depth sees the same specs and — decisions being
// deterministic — the same feedback. streamOf maps loop i to the stream id
// used at this depth; each depth uses ids no one else has touched, so every
// replay starts from fresh sessions. batch 0 replays singles.
func replay(sc *script, ops layerOps, loops, batch int, streamOf func(i int) int, sb *spanBuf, parents []uint64) (replayed, error) {
	var out replayed
	env := sc.newEnv()
	record := func(what string, first int, el time.Duration) {
		end := time.Since(sb.epoch)
		// An observe hangs under the same outer call as the decide before it.
		k := len(out.spanIDs)
		if what == "Observe" {
			k--
		}
		var parent uint64
		if k < len(parents) {
			parent = parents[k]
		}
		id := sb.add(ops.name+"."+what, parent, sc.loopID(first), end-el, end)
		if what != "Observe" {
			out.spanIDs = append(out.spanIDs, id)
		}
	}
	// Singles are groups of one through ops.decide; batches go through
	// ops.batch. Either way: decide the group, then step and observe each.
	group := batch
	if group == 0 {
		group = 1
	}
	reqs := make([]alert.BatchRequest, group)
	one := make([]alert.Decision, 1)
	for first := 0; first+group <= loops; first += group {
		for k := range reqs {
			reqs[k] = alert.BatchRequest{Stream: streamOf(first + k), Spec: sc.spec(first + k)}
		}
		var ds []alert.Decision
		var el time.Duration
		var err error
		what := "DecideBatch"
		if batch == 0 {
			what, ds = "Decide", one
			ds[0], el, err = ops.decide(reqs[0].Stream, reqs[0].Spec)
		} else {
			ds, el, err = ops.batch(reqs)
		}
		if err != nil {
			return out, fmt.Errorf("%s %s: %w", ops.name, what, err)
		}
		record(what, first, el)
		out.decideUS = append(out.decideUS, micros(el))
		for k, d := range ds {
			fb, _ := sc.step(env, first+k, reqs[k].Spec, d)
			if el, err = ops.observe(reqs[k].Stream, fb); err != nil {
				return out, fmt.Errorf("%s Observe: %w", ops.name, err)
			}
			record("Observe", first, el)
			out.observeUS = append(out.observeUS, micros(el))
		}
	}
	return out, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(xs []float64) float64 { return mathx.Percentile(xs, 50) }

// selfUS is a depth's self time: its span minus its child's, as medians
// over the same loops replayed at both depths.
func selfUS(outer, inner replayed) float64 { return median(outer.decideUS) - median(inner.decideUS) }

// nsPerOp times n calls of f in bulk.
func nsPerOp(n int, f func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}

// mallocsPerOp counts heap allocations per call of f over n calls.
func mallocsPerOp(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// echoRTT is the floor any request/response over loopback TCP pays: n
// round trips of reqLen bytes out, respLen bytes back, against a server
// that does nothing else. Median, in µs.
func echoRTT(n, reqLen, respLen int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		in, out := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(c, in); err != nil {
				return
			}
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	out, in := make([]byte, reqLen), make([]byte, respLen)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err = c.Write(out); err != nil {
			break
		}
		if _, err = io.ReadFull(c, in); err != nil {
			break
		}
		rtts = append(rtts, micros(time.Since(t)))
	}
	c.Close()
	<-done
	if err != nil {
		return 0, err
	}
	return median(rtts), nil
}

// Stream-id offsets keeping every probe depth on sessions of its own.
const (
	offServe = (iota + 1) << 24
	offRaw
	offClient
	offTotal
	offHTTP
	offHTTPBatch
	offHTTPChain
	offServeBatch
	offJSONBatch
	offAllocs
)

// runProbes measures every layer from outside, on the workload's own
// generated inputs, and assembles the per-decide budget. It runs after the
// counters were read: its traffic goes to stream ids the timed run never
// used. The returned spans nest client → netserve → serve → core per loop.
func (r *rig) runProbes() (map[string]float64, []span, error) {
	// One P for every probe. With two or more, a serial decide is a
	// lottery: ≈ 33 µs when the goroutine it hands to finds a spinning P,
	// ≈ 70 µs when a parked one must be woken, about half the time each,
	// and a 2,000-loop median flips between the modes from run to run. On
	// one P every hand-off is a goroutine switch, so the rows are path
	// lengths and repeat within a few percent; what cross-core wake-ups
	// cost under load is in decide_p50_us and cpu_us_per_loop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC() // so no mark phase from the run's garbage time-slices the one P
	m := map[string]float64{}
	sc := r.drivers[0].sc
	n := r.sz.probeLoops
	sb := newSpanBuf(1<<56, 24*n)
	plus := func(off int) func(int) int { return func(i int) int { return off + sc.stream(i) } }

	conn, err := net.Dial("tcp", r.st.bin.Addr())
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	binCli := backendOps("client", clientBackend{r.st.cli})
	srvOps := backendOps("serve", inprocBackend{srv: r.st.srv})

	// The singles chain, outermost first so each depth can parent the next.
	cli, err := replay(sc, binCli, n, 0, plus(offClient), &sb, nil)
	if err != nil {
		return nil, nil, err
	}
	// The budget's total is the outermost depth once more, on sessions of
	// its own, back to back with the replay the rows come from.
	var total replayed
	if r.w.Batch == 0 {
		if total, err = replay(sc, binCli, n, 0, plus(offTotal), &spanBuf{}, nil); err != nil {
			return nil, nil, err
		}
	}
	raw, err := replay(sc, rawBinOps(conn), n, 0, plus(offRaw), &sb, cli.spanIDs)
	if err != nil {
		return nil, nil, err
	}
	srv, err := replay(sc, srvOps, n, 0, plus(offServe), &sb, raw.spanIDs)
	if err != nil {
		return nil, nil, err
	}
	cor, err := replay(sc, coreOps(r.w, alert.Options{}), n, 0, sc.stream, &sb, srv.spanIDs)
	if err != nil {
		return nil, nil, err
	}
	htp, err := replay(sc, httpOps(r.st.front), n, 0, plus(offHTTP), &sb, nil)
	if err != nil {
		return nil, nil, err
	}
	naiveLoops := n
	if naiveLoops > 500 {
		naiveLoops = 500
	}
	naive, err := replay(sc, coreOps(r.w, alert.Options{ReferenceScorer: true}), naiveLoops, 0, sc.stream, &spanBuf{}, nil)
	if err != nil {
		return nil, nil, err
	}

	// A batch of 64 over 64 distinct fresh streams, whatever the
	// workload's own shape: consecutive loops of a 16-stream driver would
	// repeat streams inside one batch and hit the decision cache.
	const b64 = 64
	batchLoops := 2 * n
	if batchLoops < 4*b64 {
		batchLoops = 4 * b64
	}
	hb, err := replay(sc, httpOps(r.st.front), batchLoops, b64, func(i int) int { return offHTTPBatch + i%b64 }, &spanBuf{}, nil)
	if err != nil {
		return nil, nil, err
	}

	candidates := len(core.NewEngine(r.prof, core.DefaultOptions()).Candidates())
	m["core.decide_us"] = median(cor.decideUS)
	m["core.observe_us"] = median(cor.observeUS)
	m["core.candidates"] = float64(candidates)
	m["core.ns_per_candidate"] = 1e3 * m["core.decide_us"] / float64(candidates)
	m["core.session_bytes"] = float64(core.SessionBytes())
	m["serve.decide_us"] = median(srv.decideUS)
	m["serve.observe_us"] = median(srv.observeUS)
	m["serve.hop_us"] = m["serve.decide_us"] - m["core.decide_us"]
	m["netserve.bin_raw_rtt_us"] = median(raw.decideUS)
	m["netserve.http_decide_us"] = median(htp.decideUS)
	m["netserve.http_observe_us"] = median(htp.observeUS)
	m["netserve.http_batch64_us"] = median(hb.decideUS)
	m["client.self_us"] = selfUS(cli, raw)
	m["yardstick.naive_decide_us"] = median(naive.decideUS)

	// Codec and admission micro-probes on one of the generated specs.
	spec, stream := sc.spec(0), offAllocs
	dec, est := r.st.srv.Decide(stream, spec)
	reqFrame := binwire.AppendDecide(nil, 1, stream, spec)
	respFrame := binwire.AppendDecideResp(nil, 1, dec, est, "")
	reqF, _, err := binwire.ParseFrame(reqFrame)
	if err != nil {
		return nil, nil, err
	}
	respF, _, err := binwire.ParseFrame(respFrame)
	if err != nil {
		return nil, nil, err
	}
	const codecOps = 20000
	buf := make([]byte, 0, 512)
	encDecide := nsPerOp(codecOps, func() { buf = binwire.AppendDecide(buf[:0], 1, stream, spec) })
	decDecide := nsPerOp(codecOps, func() { binwire.DecodeDecide(reqF.Body) })
	encResp := nsPerOp(codecOps, func() { buf = binwire.AppendDecideResp(buf[:0], 1, dec, est, "") })
	decResp := nsPerOp(codecOps, func() { binwire.DecodeDecideResp(respF.Body) })
	m["binwire.encode_decide_ns"] = encDecide
	m["binwire.decode_decide_ns"] = decDecide
	m["binwire.encode_resp_ns"] = encResp
	m["binwire.decode_resp_ns"] = decResp
	m["binwire.frame_bytes_decide"] = float64(len(reqFrame))
	m["binwire.frame_bytes_resp"] = float64(len(respFrame))

	gate := overload.NewGate(overload.NewController(overload.Config{Inflight: 256, Queue: 4096}))
	m["overload.admit_release_ns"] = nsPerOp(100000, func() {
		if v, _ := gate.TryAcquire(spec.Deadline); v == overload.GateAdmitted {
			gate.Release()
		}
	})

	// Allocations: the same frame (and the same batch body) again and
	// again, so everything counted is the server's.
	rd := binwire.NewReader(conn)
	var ioErr error
	m["netserve.bin_allocs_per_decide"] = mallocsPerOp(2000, func() {
		if _, err := conn.Write(reqFrame); err != nil {
			ioErr = err
			return
		}
		if _, err := rd.Next(); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return nil, nil, ioErr
	}
	batchIn := netserve.BatchRequest{Requests: make([]netserve.DecideRequest, b64)}
	for k := range batchIn.Requests {
		batchIn.Requests[k] = netserve.DecideRequest{Stream: offHTTPBatch + k, Spec: netserve.FromSpec(spec)}
	}
	batchBody, err := json.Marshal(batchIn)
	if err != nil {
		return nil, nil, err
	}
	m["netserve.http_allocs_per_batch64"] = mallocsPerOp(50, func() {
		r.st.front.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/decide-batch", bytes.NewReader(batchBody)))
	})

	// The budget: every row is a self time on the workload's own call
	// shape, and the rows sum to the outermost depth's span. The total is
	// the same call measured by a replay of its own, so coverage says how
	// well an independent end-to-end measurement agrees with the rows.
	// See bench/README.md for how to read it.
	var rows struct{ core, serve, netserve, binwire, client, loopback, total float64 }
	if r.w.Batch == 0 {
		srvCodec, cliCodec := (decDecide+encResp)/1e3, (encDecide+decResp)/1e3
		if rows.loopback, err = echoRTT(n, len(reqFrame), len(respFrame)); err != nil {
			return nil, nil, err
		}
		rows.core = median(cor.decideUS)
		rows.serve = selfUS(srv, cor)
		rows.binwire = srvCodec + cliCodec
		rows.netserve = selfUS(raw, srv) - rows.loopback - srvCodec
		rows.client = selfUS(cli, raw) - cliCodec
		rows.total = median(total.decideUS)
	} else {
		b := r.w.Batch
		jsonCli := backendOps("client", clientBackend{r.st.jsonCli})
		jb, err := replay(sc, jsonCli, batchLoops, b, plus(offJSONBatch), &sb, nil)
		if err != nil {
			return nil, nil, err
		}
		if total, err = replay(sc, jsonCli, batchLoops, b, plus(offTotal), &spanBuf{}, nil); err != nil {
			return nil, nil, err
		}
		hsb, err := replay(sc, httpOps(r.st.front), batchLoops, b, plus(offHTTPChain), &sb, jb.spanIDs)
		if err != nil {
			return nil, nil, err
		}
		sbt, err := replay(sc, srvOps, batchLoops, b, plus(offServeBatch), &sb, hsb.spanIDs)
		if err != nil {
			return nil, nil, err
		}
		cb, err := replay(sc, coreOps(r.w, alert.Options{}), batchLoops, b, sc.stream, &sb, sbt.spanIDs)
		if err != nil {
			return nil, nil, err
		}
		// The JSON bodies' sizes set the echo probe's payloads.
		reqLen, respLen := len(batchBody)*b/b64, 0
		rec := httptest.NewRecorder()
		r.st.front.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide-batch", bytes.NewReader(batchBody)))
		respLen = rec.Body.Len() * b / b64
		if rows.loopback, err = echoRTT(n, reqLen, respLen); err != nil {
			return nil, nil, err
		}
		rows.core = median(cb.decideUS)
		rows.serve = selfUS(sbt, cb)
		rows.netserve = selfUS(hsb, sbt)
		rows.client = selfUS(jb, hsb) - rows.loopback
		rows.total = median(total.decideUS)
	}
	m["budget.core_us"] = rows.core
	m["budget.serve_us"] = rows.serve
	m["budget.netserve_us"] = rows.netserve
	m["budget.binwire_us"] = rows.binwire
	m["budget.client_us"] = rows.client
	m["budget.loopback_us"] = rows.loopback
	m["budget.total_us"] = rows.total
	m["budget.coverage"] = (rows.core + rows.serve + rows.netserve + rows.binwire + rows.client + rows.loopback) / rows.total
	return m, sb.spans, nil
}
