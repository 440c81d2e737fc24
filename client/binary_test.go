package client

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// startBinaryFrontEnd stands up a front end on a loopback HTTP port, where
// a PreferBinary client reaches its binwire codec by upgrading, and returns
// the base URL and the front end so tests can build clients with whatever
// Options they need.
func startBinaryFrontEnd(t testing.TB, cfg netserve.Config) (url string, fe *netserve.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startBinaryFrontEndOn(t, cfg, ln)
}

// startBinaryFrontEndOn is startBinaryFrontEnd with the listener supplied
// by the caller.
func startBinaryFrontEndOn(t testing.TB, cfg netserve.Config, ln net.Listener) (url string, fe *netserve.Server) {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fe = netserve.New(srv, cfg)
	ts := httptest.NewUnstartedServer(fe)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		fe.Close()
		ts.Close()
	})
	return ts.URL, fe
}

// dataOps is the data plane: the six ops of a Client, each as a call
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
	url string

	mu       sync.Mutex
	script   script
	attempts int
}

func startScriptedFrontEnd(t *testing.T) *scriptedFrontEnd {
	t.Helper()
	s := &scriptedFrontEnd{}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	s.url = ts.URL
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
	if r.URL.Path == netserve.BinwirePath { // the upgrade is no data-plane attempt
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: alert-binwire\r\n\r\n")
		s.serveBinary(conn)
		return
	}
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
		status, hintMs, _ := s.next()
		switch {
		case status != 0:
			out = binwire.AppendError(nil, f.ID, uint16(status), hintMs, "scripted")
		case f.Type == binwire.MsgDecide:
			out = binwire.AppendDecideResp(nil, f.ID, scriptedDecision, scriptedEstimate, "n1")
		case f.Type == binwire.MsgObserve:
			out = binwire.AppendObserveResp(nil, f.ID)
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
	binURL, binFE := startBinaryFrontEnd(t, netserve.Config{})
	bc, err := New(binURL, Options{PreferBinary: true})
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
	if snap := binFE.BinStats(); snap.Decides != 30 || snap.Observes != 30 {
		t.Errorf("binwire saw %d decides %d observes, want 30/30", snap.Decides, snap.Observes)
	}

	fe := startScriptedFrontEnd(t)
	const retries = 2
	mk := func(opts Options) *Client {
		c, err := New(fe.url, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		c.backoffBase = time.Millisecond
		return c
	}
	retrying := Options{MaxRetries: retries, BackoffSeed: 5}
	binRetrying := retrying
	binRetrying.PreferBinary = true
	wires := []struct {
		name          string
		once, retrier *Client
	}{
		{"json", mk(Options{}), mk(retrying)},
		{"binwire", mk(Options{PreferBinary: true}), mk(binRetrying)},
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
			if snapshotRead := op.name == "export"; errors.Is(o.Err, ErrNoSession) != snapshotRead {
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
// DecideBatch, export (with ErrNoSession on a missing stream),
// import (with the conflict on a live one), evict — through a real front
// end over each codec, and checks the ops were counted on HTTP, the one
// wire they have, whatever the codec — and that the batch results are the
// same on both.
func TestBinaryTransportBatchAndMigration(t *testing.T) {
	var jsonRes []alert.BatchResult
	for _, wire := range []string{"json", "binwire"} {
		wire := wire
		t.Run(wire, func(t *testing.T) {
			url, fe := startBinaryFrontEnd(t, netserve.Config{})
			c, err := New(url, Options{PreferBinary: wire == "binwire"})
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
			if wire == "json" {
				jsonRes = res
			} else if !reflect.DeepEqual(res, jsonRes) {
				t.Errorf("binwire client's batch %+v != JSON client's %+v", res, jsonRes)
			}

			snap, err := c.ExportStream(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ExportStream(ctx, 1); !errors.Is(err, ErrNoSession) {
				t.Fatalf("re-export of a moved stream = %v, want ErrNoSession", err)
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
			httpOps, binOps := fe.NetStats().TransportSnapshot, fe.BinStats().TransportSnapshot
			if httpOps.Batches != 1 || binOps.Batches != 0 {
				t.Errorf("batch counted %d on HTTP, %d on binwire, want 1/0", httpOps.Batches, binOps.Batches)
			}
			if httpOps.Exports != 1 || httpOps.Imports != 1 || httpOps.Evictions != 1 {
				t.Errorf("stream-op counters on HTTP: %+v", httpOps)
			}
			if binOps.Exports+binOps.Imports+binOps.Evictions != 0 {
				t.Errorf("stream ops counted on binwire: %+v", binOps)
			}
		})
	}
}

// TestBinaryHotPathAllocs keeps a binwire Decide and Observe allocation-free
// end to end: the retry and encode closures stay on the stack, the waiter
// (its wake-up channel and reply buffer) comes from the waiters pool, the
// retry loop declares its *OverloadError target only once there is an
// error, and the server — which shares the process, so its allocations
// count too — serves bursts out of reused per-connection scratch. Measured
// 0 per call; the bound of 1 is what -race needs, where sync.Pool drops a
// quarter of all Puts.
func TestBinaryHotPathAllocs(t *testing.T) {
	url, _ := startBinaryFrontEnd(t, netserve.Config{})
	c, err := New(url, Options{PreferBinary: true})
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

// TestWaiterNotRecycledOnCancel pins the cancellation rule of the waiter
// pool: a waiter that gave up must not go back to the pool, because the
// reader may already have claimed it and can still wake it — and would then
// wake whoever drew the waiter next, with the answer to a different
// request. The window is the reader having taken the waiter out of the
// table but not yet woken it; the encoder hook below opens exactly that
// window.
func TestWaiterNotRecycledOnCancel(t *testing.T) {
	cc := &binConn{wwake: make(chan struct{}, 1), wstop: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	var claimed *waiter
	_, err := cc.roundTrip(ctx, func(dst []byte, id uint64) []byte {
		claimed = cc.claim(id) // the reader claims the waiter...
		cancel()               // ...and the waiter gives up before it is woken
		return dst
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("roundTrip = %v, want context.Canceled", err)
	}
	if claimed == nil {
		t.Fatal("the waiter was not in the table while its request was in flight")
	}
	claimed.done <- struct{}{} // the late wake-up
	for i := 0; i < 64; i++ {
		if w := waiters.Get().(*waiter); w == claimed || len(w.done) != 0 {
			t.Fatal("a cancelled waiter went back to the pool with a late wake-up in it")
		}
	}
}

// tableEmpty reports whether no waiter is left in cc's table or overflow map.
func tableEmpty(cc *binConn) bool {
	for i := range cc.table {
		if cc.table[i].Load() != nil {
			return false
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.ovf) == 0
}

// TestWaiterTableOverflow puts more requests in flight on one connection
// than the waiter table has slots, against a server that holds every reply
// until it has read all the requests and then answers in reverse order.
// The surplus must wait in the overflow map, and every caller must get its
// own reply: the server echoes each request's stream as the decision's
// model.
func TestWaiterTableOverflow(t *testing.T) {
	const inFlight = 2*binSlots + 44
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	full, answer := make(chan struct{}), make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := binwire.NewReader(conn)
		var replies [][]byte
		for len(replies) < inFlight {
			f, err := rd.Next()
			if err != nil {
				return
			}
			stream, _, err := binwire.DecodeDecide(f.Body)
			if err != nil {
				return
			}
			replies = append(replies, binwire.AppendDecideResp(nil, f.ID, alert.Decision{Model: stream}, scriptedEstimate, "n1"))
		}
		close(full)
		<-answer
		for i := len(replies) - 1; i >= 0; i-- {
			if _, err := conn.Write(replies[i]); err != nil {
				return
			}
		}
	}()
	c, err := New(startScriptedFrontEnd(t).url, Options{BinaryAddr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Streams that are multiples of the pool size all ride pool slot 0.
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			d, _, err := c.Decide(context.Background(), stream, testSpec())
			if err == nil && d.Model != stream {
				err = fmt.Errorf("stream %d got the reply for stream %d", stream, d.Model)
			}
			if err != nil {
				errs <- err
			}
		}(i * binPoolSize)
	}
	select {
	case <-full:
	case <-time.After(10 * time.Second):
		t.Fatal("the server never saw every request")
	}
	cc := c.data.(*binaryTransport).conns[0].Load()
	cc.mu.Lock()
	overflowed := len(cc.ovf)
	cc.mu.Unlock()
	if overflowed != inFlight-binSlots {
		t.Errorf("%d of %d in-flight requests waited in the overflow map, want %d", overflowed, inFlight, inFlight-binSlots)
	}
	close(answer)
	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("a caller never got its reply")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !tableEmpty(cc) {
		t.Error("a waiter was left behind after every reply arrived")
	}
}

// TestWaiterTableConnKilled kills a connection while callers are still
// registering on it: the server hangs up after reading a few requests and
// never answers any. Every caller — already parked, mid-registration, or
// arriving after the death — must return the connection's error within a
// deadline, and no waiter may be left in the table or the overflow map.
func TestWaiterTableConnKilled(t *testing.T) {
	const callers, hangUpAfter = binSlots + 200, 64
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
			go func() {
				defer conn.Close()
				rd := binwire.NewReader(conn)
				for n := 0; n < hangUpAfter; n++ {
					if _, err := rd.Next(); err != nil {
						return
					}
				}
			}()
		}
	}()
	for round := 0; round < 10; round++ {
		bt := newBinaryTransport(ln.Addr().String(), false)
		cc, err := bt.conn(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func(stream int) {
				_, err := cc.roundTrip(context.Background(), func(dst []byte, id uint64) []byte {
					return binwire.AppendObserve(dst, id, stream, alert.Feedback{Latency: 0.05, CompletedStage: -1})
				})
				errs <- err
			}(i)
		}
		deadline := time.After(10 * time.Second)
		for i := 0; i < callers; i++ {
			select {
			case err := <-errs:
				if err == nil || err != cc.err {
					t.Fatalf("round %d: a caller on the killed connection returned %v, want the connection's error", round, err)
				}
			case <-deadline:
				t.Fatalf("round %d: %d of %d callers still parked on a dead connection", round, callers-i, callers)
			}
		}
		if !tableEmpty(cc) {
			t.Fatalf("round %d: a waiter was left in the table of a dead connection", round)
		}
		bt.Close()
	}
}

// TestBinaryOverloadRetries pins the retry loop over the binary transport:
// a draining server sheds every decide with a 503 error frame, the client
// retries MaxRetries times after the hint, and the terminal error is the
// same *OverloadError the HTTP path yields.
func TestBinaryOverloadRetries(t *testing.T) {
	url, fe := startBinaryFrontEnd(t, netserve.Config{RetryAfter: time.Millisecond})
	if err := fe.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := New(url, Options{PreferBinary: true, MaxRetries: 3, BackoffSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.backoffBase = time.Millisecond

	_, _, err = c.Decide(context.Background(), 9, testSpec())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("decide against a draining server = %v, want *OverloadError", err)
	}
	if oe.RetryAfter != time.Millisecond {
		t.Errorf("RetryAfter hint = %v, want 1ms", oe.RetryAfter)
	}
	if snap := fe.BinStats(); snap.RejectedDraining != 4 {
		t.Errorf("server saw %d rejected attempts, want 4 (1 + 3 retries)", snap.RejectedDraining)
	}
}

// TestBinaryTransportSurvivesConnLoss kills the transport's live
// connections out from under it and checks the next call redials instead
// of failing forever.
func TestBinaryTransportSurvivesConnLoss(t *testing.T) {
	url, _ := startBinaryFrontEnd(t, netserve.Config{})
	c, err := New(url, Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()

	if _, _, err := c.Decide(ctx, 2, testSpec()); err != nil {
		t.Fatal(err)
	}
	// Reach into the transport and sever every pooled connection.
	bt := c.data.(*binaryTransport)
	for i := range bt.conns {
		if cc := bt.conns[i].Load(); cc != nil {
			cc.conn.Close()
		}
	}

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

// peerLog is a listener that records the remote address of every
// connection it accepts.
type peerLog struct {
	net.Listener
	mu    sync.Mutex
	peers []string
}

func (l *peerLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.peers = append(l.peers, c.RemoteAddr().String())
		l.mu.Unlock()
	}
	return c, err
}

// accepted returns how many connections were accepted before the one from
// peer, or -1 if that one has not been accepted yet.
func (l *peerLog) accepted(peer string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, p := range l.peers {
		if p == peer {
			return i
		}
	}
	return -1
}

// TestBinaryDialIsSingleFlight: 64 goroutines call Decide on a fresh
// client at once, so every pool slot is found empty by many callers before
// its first dial completes. Each slot must be dialed exactly once — the
// callers that find it mid-dial wait for that dial instead of opening a
// duplicate connection that is then thrown away.
func TestBinaryDialIsSingleFlight(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &peerLog{Listener: inner}
	url, _ := startBinaryFrontEndOn(t, netserve.Config{}, ln)
	c, err := New(url, Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			if _, _, err := c.Decide(context.Background(), stream, testSpec()); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every client dial returned before its Decide did, so each of those
	// connections is queued for accept ahead of one more dialed now; once
	// that one is accepted, the count before it is final.
	probe, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	deadline := time.Now().Add(5 * time.Second)
	n := ln.accepted(probe.LocalAddr().String())
	for ; n < 0; n = ln.accepted(probe.LocalAddr().String()) {
		if time.Now().After(deadline) {
			t.Fatal("probe connection never accepted")
		}
		time.Sleep(time.Millisecond)
	}
	if n != binPoolSize {
		t.Fatalf("%d concurrent first calls dialed %d connections, want %d (one per pool slot)", callers, n, binPoolSize)
	}
}

// TestBinaryDialOutlivesItsCaller: a pool slot's dial runs under the
// context of the caller that started it. When that caller gives up, a
// caller waiting on the same slot with time to spare dials again instead of
// inheriting the first caller's deadline.
func TestBinaryDialOutlivesItsCaller(t *testing.T) {
	s := &scriptedFrontEnd{}
	upgrades := make(chan struct{}, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		upgrades <- struct{}{}
		time.Sleep(200 * time.Millisecond) // a slow upgrade
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	first := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, _, err := c.Decide(ctx, 0, testSpec())
		first <- err
	}()
	<-upgrades // the first caller's dial is in flight
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := c.Decide(ctx, 0, testSpec()); err != nil {
		t.Fatalf("a caller with 5s to spare, waiting on an abandoned dial: %v", err)
	}
	if err := <-first; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("the caller that gave up got %v, want its own deadline", err)
	}
}

// TestBinaryObserveRejectsMalformedAck: an observe ack is an empty
// MsgObserveResp body; one that carries bytes is a broken server, and the
// client reports it instead of taking it for an ack, as it already does
// for a malformed decide reply.
func TestBinaryObserveRejectsMalformedAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := binwire.NewReader(conn)
		for {
			f, err := rd.Next()
			if err != nil {
				return
			}
			ack := append(binwire.AppendObserveResp(nil, f.ID), 0xEE)
			binary.LittleEndian.PutUint32(ack, uint32(len(ack)-4))
			if _, err := conn.Write(ack); err != nil {
				return
			}
		}
	}()
	c, err := New(startScriptedFrontEnd(t).url, Options{BinaryAddr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	err = c.Observe(context.Background(), 1, alert.Feedback{Decision: scriptedDecision, Latency: 0.05, CompletedStage: -1})
	if err == nil || !strings.Contains(err.Error(), "binwire") {
		t.Fatalf("observe acked by a 1-byte MsgObserveResp body = %v, want the decode error", err)
	}
}

// TestBinwireUpgradeFailures: a PreferBinary call against a port that does
// not upgrade fails within the caller's deadline and never falls back to
// JSON. A listener that accepts and never answers the upgrade holds the
// call exactly until its context ends; a plain HTTP server answers 404, and
// the error names the failed upgrade and that status.
func TestBinwireUpgradeFailures(t *testing.T) {
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })
	go func() {
		var held []net.Conn
		for {
			conn, err := silent.Accept()
			if err != nil {
				for _, c := range held {
					c.Close()
				}
				return
			}
			held = append(held, conn)
		}
	}()
	plain := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(plain.Close)

	for _, tc := range []struct {
		name, url string
		want      func(error) bool
	}{
		{"silent listener", "http://" + silent.Addr().String(), func(err error) bool {
			return errors.Is(err, context.DeadlineExceeded)
		}},
		{"plain HTTP server", plain.URL, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "binwire upgrade") && strings.Contains(err.Error(), "404")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.url, Options{PreferBinary: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, _, err = c.Decide(ctx, 1, testSpec())
			if !tc.want(err) {
				t.Errorf("Decide = %v", err)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("Decide took %s past a 200ms deadline", took)
			}
		})
	}
}
