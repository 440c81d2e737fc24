package client

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/netserve"
)

// startBinaryFrontEnd stands up a front end serving both transports: the
// HTTP listener (for control-plane reads and discovery) plus a binary
// listener, and returns the front end's pieces so tests can build clients
// with whatever Options they need.
func startBinaryFrontEnd(t testing.TB, cfg netserve.Config) (url string, fe *netserve.Server, bs *netserve.BinaryServer) {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fe = netserve.New(srv, cfg)
	ts := httptest.NewServer(fe)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs = netserve.NewBinary(fe, ln, netserve.BinaryConfig{})
	go bs.Serve()
	t.Cleanup(func() { bs.Close() })
	return ts.URL, fe, bs
}

// dataOps is the data plane: the seven ops of a Client, each as a call
// returning its success value. The parity tests below run this one table
// over both codecs; a binwire client sends the last four over HTTP.
var dataOps = []struct {
	name string
	run  func(ctx context.Context, c *Client) (any, error)
}{
	{"decide", func(ctx context.Context, c *Client) (any, error) {
		d, est, node, err := c.DecideServed(ctx, 1, testSpec())
		return []any{d, est, node}, err
	}},
	{"observe", func(ctx context.Context, c *Client) (any, error) {
		return nil, c.Observe(ctx, 1, alert.Feedback{Decision: scriptedDecision, Latency: 0.05, CompletedStage: -1})
	}},
	{"batch", func(ctx context.Context, c *Client) (any, error) {
		return c.DecideBatch(ctx, []alert.BatchRequest{{Stream: 1, Spec: testSpec()}, {Stream: 2, Spec: testSpec()}})
	}},
	{"evict", func(ctx context.Context, c *Client) (any, error) { return nil, c.EvictStream(ctx, 1) }},
	{"export", func(ctx context.Context, c *Client) (any, error) { return c.ExportStream(ctx, 1) }},
	{"checkpoint", func(ctx context.Context, c *Client) (any, error) { return c.CheckpointStream(ctx, 1) }},
	{"import", func(ctx context.Context, c *Client) (any, error) {
		var snap alert.SessionSnapshot
		if err := snap.UnmarshalBinary(scriptedSnapshot()); err != nil {
			return nil, err
		}
		return nil, c.ImportStream(ctx, 1, snap)
	}},
}

var (
	scriptedDecision = alert.Decision{Model: 3, Cap: 2, PlannedStop: 0.125, Overhead: 0.001}
	scriptedEstimate = alert.Estimate{LatMean: 0.0625, PrDeadline: 0.99, Quality: 0.75, PrQuality: 0.5, Energy: 1.5}
)

// scriptedSnapshot is a real session's canonical blob, for the scripted
// front end to serve and the import op to send.
var scriptedSnapshot = sync.OnceValue(func() []byte {
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	srv.Decide(1, testSpec())
	snap, _ := srv.ExportStream(1)
	blob, err := snap.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return blob
})

// script is what the scripted front end does with the data-plane attempts
// it sees: answer the first `rejects` of them (all, if negative) with
// status and the hint, serve the rest; short drops the last result of
// every served batch.
type script struct {
	status  int
	hintMs  int64
	rejects int
	short   bool
}

// scriptedFrontEnd speaks both wires from one script with canned replies,
// so a parity test can put the two codecs in front of the identical server
// behavior — including replies a real front end never sends on demand.
type scriptedFrontEnd struct {
	url, binAddr string

	mu       sync.Mutex
	script   script
	attempts int
}

func startScriptedFrontEnd(t *testing.T) *scriptedFrontEnd {
	t.Helper()
	s := &scriptedFrontEnd{}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serveBinary(conn)
		}
	}()
	s.url, s.binAddr = ts.URL, ln.Addr().String()
	return s
}

// play installs a script and zeroes the attempt count.
func (s *scriptedFrontEnd) play(sc script) {
	s.mu.Lock()
	s.script, s.attempts = sc, 0
	s.mu.Unlock()
}

func (s *scriptedFrontEnd) seen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts
}

// next counts one attempt and returns the script's verdict on it: a
// status to refuse it with (0 = serve it), the hint, and whether a served
// batch is cut short.
func (s *scriptedFrontEnd) next() (status int, hintMs int64, short bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.script.rejects < 0 || s.attempts <= s.script.rejects {
		return s.script.status, s.script.hintMs, false
	}
	return 0, 0, s.script.short
}

func scriptedResults(streams []int, short bool) []alert.BatchResult {
	if short {
		streams = streams[:len(streams)-1]
	}
	res := make([]alert.BatchResult, len(streams))
	for i, stream := range streams {
		res[i] = alert.BatchResult{Stream: stream, Decision: scriptedDecision, Estimate: scriptedEstimate}
	}
	return res
}

func (s *scriptedFrontEnd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	status, hintMs, short := s.next()
	var reply any
	switch {
	case status != 0:
		w.WriteHeader(status)
		reply = netserve.ErrorResponse{Error: "scripted", RetryAfterMs: hintMs}
	case r.URL.Path == "/v1/decide":
		reply = netserve.DecideResponse{Decision: netserve.FromDecision(scriptedDecision),
			Estimate: netserve.FromEstimate(scriptedEstimate), NodeID: "n1"}
	case r.URL.Path == "/v1/decide-batch":
		var in netserve.BatchRequest
		json.NewDecoder(r.Body).Decode(&in)
		streams := make([]int, len(in.Requests))
		for i, q := range in.Requests {
			streams[i] = q.Stream
		}
		var out netserve.BatchResponse
		for _, res := range scriptedResults(streams, short) {
			out.Results = append(out.Results, netserve.BatchResult{Stream: res.Stream,
				Decision: netserve.FromDecision(res.Decision), Estimate: netserve.FromEstimate(res.Estimate)})
		}
		reply = out
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/streams/"):
		reply = netserve.SnapshotResponse{SnapshotB64: base64.StdEncoding.EncodeToString(scriptedSnapshot())}
	default: // observe, evict, import: the client reads no body
		reply = struct{}{}
	}
	json.NewEncoder(w).Encode(reply)
}

func (s *scriptedFrontEnd) serveBinary(conn net.Conn) {
	defer conn.Close()
	rd := binwire.NewReader(conn)
	for {
		f, err := rd.Next()
		if err != nil {
			return
		}
		var out []byte
		status, hintMs, short := s.next()
		switch {
		case status != 0:
			out = binwire.AppendError(nil, f.ID, uint16(status), hintMs, "scripted")
		case f.Type == binwire.MsgDecide:
			out = binwire.AppendDecideResp(nil, f.ID, scriptedDecision, scriptedEstimate, "n1")
		case f.Type == binwire.MsgObserve:
			out = binwire.AppendObserveResp(nil, f.ID)
		case f.Type == binwire.MsgBatch:
			reqs, _ := binwire.DecodeBatch(f.Body, nil)
			streams := make([]int, len(reqs))
			for i, q := range reqs {
				streams[i] = q.Stream
			}
			res := scriptedResults(streams, short)
			out = binwire.AppendBatchResp(nil, f.ID, len(res), func(i int) alert.BatchResult { return res[i] })
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TestBinaryTransportMatchesJSON requires the two codecs to be
// indistinguishable by behavior. First against real back ends: two
// identical ones driven through the same decide/observe sequence — one
// client on binwire, one on HTTP/JSON — must make bit-identical decisions
// at every step. Then op by op (dataOps) against one scripted front end:
// for every reply a server can give, both codecs must return the same
// value, the same error, and have tried the same number of times.
func TestBinaryTransportMatchesJSON(t *testing.T) {
	binURL, _, bs := startBinaryFrontEnd(t, netserve.Config{})
	bc, err := New(binURL, Options{BinaryAddr: bs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bc.Close)
	jc, _ := startFrontEnd(t, netserve.Config{})

	ctx := context.Background()
	const stream = 4
	for i := 0; i < 30; i++ {
		bd, best, err := bc.Decide(ctx, stream, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		jd, jest, err := jc.Decide(ctx, stream, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if bd != jd {
			t.Fatalf("step %d: binary decision %+v != JSON %+v", i, bd, jd)
		}
		if math.Float64bits(best.LatMean) != math.Float64bits(jest.LatMean) {
			t.Fatalf("step %d: estimates diverge: %v vs %v", i, best.LatMean, jest.LatMean)
		}
		fb := alert.Feedback{Decision: bd, Latency: best.LatMean * 0.93, CompletedStage: -1}
		if err := bc.Observe(ctx, stream, fb); err != nil {
			t.Fatal(err)
		}
		if err := jc.Observe(ctx, stream, fb); err != nil {
			t.Fatal(err)
		}
	}
	if snap := bs.BinStats(); snap.Decides != 30 || snap.Observes != 30 {
		t.Errorf("binary listener saw %d decides %d observes, want 30/30", snap.Decides, snap.Observes)
	}

	fe := startScriptedFrontEnd(t)
	const retries = 2
	mk := func(opts Options) *Client {
		c, err := New(fe.url, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	retrying := Options{MaxRetries: retries, BackoffBase: time.Millisecond, BackoffSeed: 5}
	binRetrying := retrying
	binRetrying.BinaryAddr = fe.binAddr
	wires := []struct {
		name          string
		once, retrier *Client
	}{
		{"json", mk(Options{}), mk(retrying)},
		{"binwire", mk(Options{BinaryAddr: fe.binAddr}), mk(binRetrying)},
	}
	type outcome struct {
		Value    any
		Err      error
		Attempts int
	}
	// both plays the script for op over each wire and requires one outcome.
	both := func(t *testing.T, sc script, retry bool, run func(context.Context, *Client) (any, error)) outcome {
		t.Helper()
		var got [2]outcome
		for i, w := range wires {
			c := w.once
			if retry {
				c = w.retrier
			}
			fe.play(sc)
			v, err := run(ctx, c)
			got[i] = outcome{v, err, fe.seen()}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("codecs disagree on %+v:\n%s: %+v\n%s: %+v", sc, wires[0].name, got[0], wires[1].name, got[1])
		}
		return got[0]
	}
	for _, op := range dataOps {
		op := op
		t.Run(op.name, func(t *testing.T) {
			if o := both(t, script{}, false, op.run); o.Err != nil || o.Attempts != 1 {
				t.Errorf("served op: %+v", o)
			} else if op.name == "decide" && !reflect.DeepEqual(o.Value, []any{scriptedDecision, scriptedEstimate, "n1"}) {
				t.Errorf("decide value %+v", o.Value)
			}

			var oe *OverloadError
			o := both(t, script{status: 429, hintMs: 40, rejects: -1}, false, op.run)
			if !errors.As(o.Err, &oe) || oe.StatusCode != 429 || oe.RetryAfter != 40*time.Millisecond {
				t.Errorf("429 with a 40ms hint surfaced as %#v", o.Err)
			}
			o = both(t, script{status: 503, rejects: -1}, false, op.run)
			if !errors.As(o.Err, &oe) || oe.StatusCode != 503 || oe.RetryAfter != 0 {
				t.Errorf("hintless 503 surfaced as %#v", o.Err)
			}

			var ae *APIError
			o = both(t, script{status: 404, rejects: -1}, true, op.run)
			if snapshotRead := op.name == "export" || op.name == "checkpoint"; errors.Is(o.Err, ErrNoSession) != snapshotRead {
				t.Errorf("404 surfaced as %v (ErrNoSession is for snapshot reads: %v)", o.Err, snapshotRead)
			} else if !snapshotRead && (!errors.As(o.Err, &ae) || ae.StatusCode != 404) {
				t.Errorf("404 surfaced as %#v", o.Err)
			}
			o = both(t, script{status: 409, rejects: -1}, true, op.run)
			if !errors.As(o.Err, &ae) || ae.StatusCode != 409 || o.Attempts != 1 {
				t.Errorf("409 surfaced as %#v after %d attempts, want *APIError after 1", o.Err, o.Attempts)
			}

			// MaxRetries means the same number of attempts on both wires,
			// whether the overload outlasts them or clears in time.
			o = both(t, script{status: 503, hintMs: 1, rejects: -1}, true, op.run)
			if !errors.As(o.Err, &oe) || o.Attempts != 1+retries {
				t.Errorf("persistent 503: %v after %d attempts, want *OverloadError after %d", o.Err, o.Attempts, 1+retries)
			}
			o = both(t, script{status: 429, rejects: retries}, true, op.run)
			if o.Err != nil || o.Attempts != 1+retries {
				t.Errorf("429 clearing after %d rejections: %v after %d attempts", retries, o.Err, o.Attempts)
			}

			if op.name == "batch" {
				o = both(t, script{short: true}, false, op.run)
				if o.Err == nil || !strings.Contains(o.Err.Error(), "1 results for 2 requests") {
					t.Errorf("short batch reply surfaced as %v, want the count mismatch", o.Err)
				}
			}
		})
	}
}

// TestBinaryTransportBatchAndMigration walks the rest of the data plane —
// DecideBatch, checkpoint, export (with ErrNoSession on a missing stream),
// import (with the conflict on a live one), evict — through a real front
// end over each codec, and checks the ops were counted on the transport
// that carried them: the batch on the client's codec, the four stream ops
// on HTTP whatever the codec.
func TestBinaryTransportBatchAndMigration(t *testing.T) {
	for _, wire := range []string{"json", "binwire"} {
		wire := wire
		t.Run(wire, func(t *testing.T) {
			url, fe, bs := startBinaryFrontEnd(t, netserve.Config{})
			opts := Options{}
			if wire == "binwire" {
				opts.BinaryAddr = bs.Addr()
			}
			c, err := New(url, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			ctx := context.Background()

			res, err := c.DecideBatch(ctx, []alert.BatchRequest{
				{Stream: 1, Spec: testSpec()},
				{Stream: 2, Spec: testSpec()},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 2 || res[0].Stream != 1 || res[1].Stream != 2 || res[0].Estimate.LatMean <= 0 {
				t.Fatalf("batch results: %+v", res)
			}

			if _, err := c.CheckpointStream(ctx, 1); err != nil {
				t.Fatal(err)
			}
			snap, err := c.ExportStream(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ExportStream(ctx, 1); !errors.Is(err, ErrNoSession) {
				t.Fatalf("re-export of a moved stream = %v, want ErrNoSession", err)
			}
			if _, err := c.CheckpointStream(ctx, 1); !errors.Is(err, ErrNoSession) {
				t.Fatalf("checkpoint of a moved stream = %v, want ErrNoSession", err)
			}
			if err := c.ImportStream(ctx, 1, snap); err != nil {
				t.Fatal(err)
			}
			var ae *APIError
			if err := c.ImportStream(ctx, 1, snap); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
				t.Fatalf("double import = %v, want *APIError conflict", err)
			}
			if err := c.EvictStream(ctx, 1); err != nil {
				t.Fatal(err)
			}
			httpOps, binOps := fe.NetStats().TransportSnapshot, bs.BinStats().TransportSnapshot
			batched, idle := httpOps, binOps
			if wire == "binwire" {
				batched, idle = idle, batched
			}
			if batched.Batches != 1 || idle.Batches != 0 {
				t.Errorf("batch counted %d on the %s codec, %d on the other, want 1/0", batched.Batches, wire, idle.Batches)
			}
			if httpOps.Checkpoints != 1 || httpOps.Exports != 1 || httpOps.Imports != 1 || httpOps.Evictions != 1 {
				t.Errorf("stream-op counters on HTTP: %+v", httpOps)
			}
			if binOps.Checkpoints+binOps.Exports+binOps.Imports+binOps.Evictions != 0 {
				t.Errorf("stream ops counted on binwire: %+v", binOps)
			}
		})
	}
}

// TestPreferBinaryDiscovery checks the upgrade path cluster clients use: a
// client given only the HTTP address probes /v1/stats, finds the
// advertised binary listener, and moves the data plane onto it — including
// when the server advertises a wildcard host, which the client replaces
// with the host it already reaches the server by.
func TestPreferBinaryDiscovery(t *testing.T) {
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fe := netserve.New(srv, netserve.Config{})
	ts := httptest.NewServer(fe)
	t.Cleanup(ts.Close)
	// A wildcard bind advertises an unspecified host (e.g. "[::]:p"); the
	// client must substitute the HTTP host rather than dial the wildcard.
	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	bs := netserve.NewBinary(fe, ln, netserve.BinaryConfig{})
	go bs.Serve()
	t.Cleanup(func() { bs.Close() })

	c, err := New(ts.URL, Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	ctx := context.Background()
	if _, _, err := c.Decide(ctx, 7, testSpec()); err != nil {
		t.Fatal(err)
	}
	if snap := bs.BinStats(); snap.Decides != 1 {
		t.Fatalf("binary listener saw %d decides, want 1 (discovery failed)", snap.Decides)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Net.Decides != 0 {
		t.Errorf("HTTP served %d decides, want 0 (data plane should ride binary)", st.Net.Decides)
	}
}

// TestPreferBinaryFallsBackToJSON: against a server with no binary
// listener the same Options keep working — the probe concludes "JSON only"
// and the client never dials anything.
func TestPreferBinaryFallsBackToJSON(t *testing.T) {
	plain, fe := startFrontEnd(t, netserve.Config{})
	jc, err := New(plain.http.base, Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jc.Close)

	ctx := context.Background()
	if _, _, err := jc.Decide(ctx, 3, testSpec()); err != nil {
		t.Fatal(err)
	}
	st, err := jc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Net.Decides != 1 {
		t.Errorf("HTTP decides = %d, want 1 (fallback to JSON)", st.Net.Decides)
	}
	_ = fe
}

// TestPreferBinaryProbeStallsNobody: against a server that accepts the
// /v1/stats discovery probe and never answers it, the probing call is stuck
// (it brought no deadline) — but nobody else is: a second call returns at
// its own deadline, and Close returns.
func TestPreferBinaryProbeStallsNobody(t *testing.T) {
	parked, release := make(chan struct{}, 16), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			parked <- struct{}{}
			<-release
		}
		http.Error(w, `{"error":"scripted"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) }) // first, or ts.Close waits on the parked handlers
	c, err := New(ts.URL, Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	go c.Decide(context.Background(), 1, testSpec())
	<-parked

	second := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, _, err := c.Decide(ctx, 2, testSpec())
		second <- err
	}()
	select {
	case err := <-second:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("second Decide = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Decide with a 50ms deadline is stuck behind another caller's parked discovery probe")
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is stuck behind a parked discovery probe")
	}
}

// TestBinaryHotPathAllocs keeps a binwire Decide and Observe allocation-free
// end to end: the retry and encode closures stay on the stack, the reply
// channel comes from replyPool, the retry loop declares its *OverloadError
// target only once there is an error, and the server — which shares the
// process, so its allocations count too — serves bursts out of reused
// per-connection scratch. Measured 0 per call (3 before the pool); the bound
// of 1 is what -race needs, where sync.Pool drops a quarter of all Puts.
func TestBinaryHotPathAllocs(t *testing.T) {
	url, _, bs := startBinaryFrontEnd(t, netserve.Config{})
	c, err := New(url, Options{BinaryAddr: bs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx, spec := context.Background(), testSpec()
	d, est, err := c.Decide(ctx, 1, spec) // dials, creates the session
	if err != nil {
		t.Fatal(err)
	}
	fb := alert.Feedback{Decision: d, Latency: est.LatMean, CompletedStage: -1}
	if n := testing.AllocsPerRun(500, func() { c.Decide(ctx, 1, spec) }); n > 1 {
		t.Errorf("Decide over binwire: %.0f allocs per call, want <= 1", n)
	}
	if n := testing.AllocsPerRun(500, func() { c.Observe(ctx, 1, fb) }); n > 1 {
		t.Errorf("Observe over binwire: %.0f allocs per call, want <= 1", n)
	}
}

// TestReplyChannelNotRecycledOnCancel pins the one rule of replyPool: a
// waiter that gave up must not put its channel back, because the reply it
// abandoned can still be sent on it — and would then be received by whoever
// drew the channel next, as the answer to a different request. The window is
// the read loop having claimed the waiter (pending entry deleted) but not
// yet sent; the encoder hook below opens exactly that window.
func TestReplyChannelNotRecycledOnCancel(t *testing.T) {
	cc := &binConn{pending: make(map[uint64]chan binReply), wwake: make(chan struct{}, 1), wstop: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	var claimed chan binReply
	_, err := cc.roundTrip(ctx, func(dst []byte, id uint64) []byte {
		cc.mu.Lock()
		claimed = cc.pending[id] // the read loop claims the waiter...
		delete(cc.pending, id)
		cc.mu.Unlock()
		cancel() // ...and the waiter gives up before the reply is sent
		return dst
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("roundTrip = %v, want context.Canceled", err)
	}
	claimed <- binReply{} // the late reply
	for i := 0; i < 64; i++ {
		if ch := replyPool.Get().(chan binReply); ch == claimed || len(ch) != 0 {
			t.Fatal("a cancelled waiter's channel went back to the pool with a late reply in it")
		}
	}
}

// TestBinaryOverloadRetries pins the retry loop over the binary transport:
// a draining server sheds every decide with a 503 error frame, the client
// retries MaxRetries times after the hint, and the terminal error is the
// same *OverloadError the HTTP path yields.
func TestBinaryOverloadRetries(t *testing.T) {
	url, fe, bs := startBinaryFrontEnd(t, netserve.Config{RetryAfter: time.Millisecond})
	if err := fe.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := New(url, Options{BinaryAddr: bs.Addr(), MaxRetries: 3, BackoffBase: time.Millisecond, BackoffSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	_, _, err = c.Decide(context.Background(), 9, testSpec())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("decide against a draining server = %v, want *OverloadError", err)
	}
	if oe.RetryAfter != time.Millisecond {
		t.Errorf("RetryAfter hint = %v, want 1ms", oe.RetryAfter)
	}
	if snap := bs.BinStats(); snap.RejectedDraining != 4 {
		t.Errorf("server saw %d rejected attempts, want 4 (1 + 3 retries)", snap.RejectedDraining)
	}
}

// TestBinaryTransportSurvivesConnLoss kills the transport's live
// connections out from under it and checks the next call redials instead
// of failing forever.
func TestBinaryTransportSurvivesConnLoss(t *testing.T) {
	url, _, bs := startBinaryFrontEnd(t, netserve.Config{})
	c, err := New(url, Options{BinaryAddr: bs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()

	if _, _, err := c.Decide(ctx, 2, testSpec()); err != nil {
		t.Fatal(err)
	}
	// Reach into the transport and sever every pooled connection.
	bt := c.wire(ctx).(*binaryTransport)
	bt.mu.Lock()
	for _, cc := range bt.conns {
		if cc != nil {
			cc.conn.Close()
		}
	}
	bt.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := c.Decide(ctx, 2, testSpec()); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("transport never recovered from severed connections")
		}
	}
}
