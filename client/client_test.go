package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/netserve"
)

// startFrontEnd stands up a real alert.Server behind a netserve front end
// on a loopback listener and returns a connected client.
func startFrontEnd(t testing.TB, cfg netserve.Config) (*Client, *netserve.Server) {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fe := netserve.New(srv, cfg)
	ts := httptest.NewServer(fe)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, fe
}

func testSpec() alert.Spec {
	return alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
}

// TestClientRoundTrip drives the full decide → observe → batch → stats →
// evict surface through the typed client against a live front end.
func TestClientRoundTrip(t *testing.T) {
	c, _ := startFrontEnd(t, netserve.Config{})
	ctx := context.Background()

	d, est, err := c.Decide(ctx, 5, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if est.LatMean <= 0 || d.CapW <= 0 {
		t.Fatalf("empty decision/estimate: %+v / %+v", d, est)
	}

	if err := c.Observe(ctx, 5, alert.Feedback{
		Decision: d, Latency: est.LatMean * 1.2, CompletedStage: -1, IdlePowerW: 5,
	}); err != nil {
		t.Fatal(err)
	}

	res, err := c.DecideBatch(ctx, []alert.BatchRequest{
		{Stream: 5, Spec: testSpec()}, {Stream: 6, Spec: testSpec()}, {Stream: 5, Spec: testSpec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Stream != 5 || res[1].Stream != 6 || res[2].Stream != 5 {
		t.Fatalf("batch results wrong: %+v", res)
	}
	if res, err := c.DecideBatch(ctx, nil); err != nil || res != nil {
		t.Errorf("empty batch = %v, %v; want nil, nil", res, err)
	}

	ids, err := c.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 6 {
		t.Fatalf("streams = %v, want [5 6]", ids)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Serve.Decisions != 4 || stats.Net.Decides != 1 || stats.Net.BatchDecisions != 3 {
		t.Errorf("stats = serve %+v net %+v", stats.Serve, stats.Net)
	}

	if err := c.EvictStream(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.EvictStream(ctx, 999); err != nil { // unknown stream: no-op
		t.Fatal(err)
	}
	if ids, err = c.Streams(ctx); err != nil || len(ids) != 1 || ids[0] != 6 {
		t.Fatalf("streams after evict = %v (%v), want [6]", ids, err)
	}
}

// TestClientMatchesInProcess: a scripted stream driven through the client
// makes bit-identical decisions to the same script against alert.Server
// in-process — the wire carries every float exactly.
func TestClientMatchesInProcess(t *testing.T) {
	c, _ := startFrontEnd(t, netserve.Config{})
	local, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	ctx := context.Background()
	spec := testSpec()
	for i := 0; i < 30; i++ {
		want, wantEst := local.Decide(9, spec)
		got, gotEst, err := c.Decide(ctx, 9, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotEst != wantEst {
			t.Fatalf("step %d: remote (%+v, %+v) != local (%+v, %+v)", i, got, gotEst, want, wantEst)
		}
		fb := alert.Feedback{
			Decision:       want,
			Latency:        wantEst.LatMean * (0.85 + 0.02*float64(i%15)),
			CompletedStage: -1,
			IdlePowerW:     4,
		}
		local.Observe(9, fb)
		if err := c.Observe(ctx, 9, fb); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverloadErrorSurface: with retries off, a saturated gate surfaces as
// *OverloadError carrying the server's Retry-After hint.
func TestOverloadErrorSurface(t *testing.T) {
	c, fe := startFrontEnd(t, netserve.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 20 * time.Millisecond})
	ctx := context.Background()

	// Saturate: hold the only token, keep a retrying request knocking at
	// the gate (it may hold the queue slot or be 429ing, depending on the
	// race with the probes below), then overflow with probes until one is
	// rejected.
	fe.HoldTokenForTest()
	retrier, err := New(c.http.base.String(), Options{MaxRetries: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer retrier.Close()
	queued := make(chan error, 1)
	go func() {
		_, _, err := retrier.Decide(ctx, 1, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 5, AccuracyGoal: 0.9})
		queued <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err := c.Decide(ctx, 2, testSpec())
		var oe *OverloadError
		if errors.As(err, &oe) {
			if oe.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429", oe.StatusCode)
			}
			if oe.RetryAfter != 20*time.Millisecond {
				t.Fatalf("retry-after %s, want 20ms", oe.RetryAfter)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate never saturated")
		}
	}

	// Open the gate: the queued request must be served — admission is
	// all-or-nothing, a request that got a queue slot is never dropped.
	fe.ReleaseTokenForTest()
	if err := <-queued; err != nil {
		t.Fatalf("queued request must be served once the gate opens: %v", err)
	}
}

// TestRetryOnOverload: with MaxRetries set, the client rides out a
// transient overload by itself.
func TestRetryOnOverload(t *testing.T) {
	c, fe := startFrontEnd(t, netserve.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: 5 * time.Millisecond})
	retry, err := New(c.http.base.String(), Options{MaxRetries: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer retry.Close()

	fe.HoldTokenForTest()
	released := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		fe.ReleaseTokenForTest()
		close(released)
	}()
	// Fill the queue slot so the retrying client initially sees 429s.
	go c.Decide(context.Background(), 1, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 30, AccuracyGoal: 0.9})
	time.Sleep(10 * time.Millisecond)

	if _, _, err := retry.Decide(context.Background(), 2, testSpec()); err != nil {
		t.Fatalf("retrying decide failed through transient overload: %v", err)
	}
	<-released
}

// TestContextCancellation: a canceled context aborts both the request and
// the retry loop.
func TestContextCancellation(t *testing.T) {
	c, fe := startFrontEnd(t, netserve.Config{MaxInflight: 1, MaxQueue: 0, RetryAfter: time.Hour})
	fe.HoldTokenForTest()
	defer fe.ReleaseTokenForTest()

	retry, err := New(c.http.base.String(), Options{MaxRetries: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer retry.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = retry.Decide(ctx, 1, testSpec())
	if err == nil {
		t.Fatal("decide against a saturated gate with canceled context must fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %s", time.Since(start))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("ftp://host", Options{}); err == nil {
		t.Error("non-http scheme must error")
	}
	if _, err := New("://bad", Options{}); err == nil {
		t.Error("unparseable URL must error")
	}
	c, err := New("http://host:1234/", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.http.base.String() != "http://host:1234" {
		t.Errorf("base = %q, want trailing slash trimmed", c.http.base.String())
	}
	if _, err := New("https://host", Options{PreferBinary: true}); err == nil {
		t.Error("PreferBinary with an https URL must error: binwire does not run over TLS")
	}
	// PreferBinary dials the base URL's own host:port, port 80 when it names none.
	for url, want := range map[string]string{"http://host": "host:80", "http://[::1]:9/": "[::1]:9"} {
		c, err := New(url, Options{PreferBinary: true})
		if err != nil {
			t.Fatal(err)
		}
		if bt, ok := c.data.(*binaryTransport); !ok || bt.addr != want || !bt.upgrade {
			t.Errorf("PreferBinary on %s: codec %#v, want an upgrading binwire transport to %s", url, c.data, want)
		}
	}
}

// TestClientExportImport: the typed snapshot methods round-trip a session
// through two front ends bit-exactly, and a missing stream surfaces as
// ErrNoSession.
func TestClientExportImport(t *testing.T) {
	src, _ := startFrontEnd(t, netserve.Config{})
	dst, _ := startFrontEnd(t, netserve.Config{})
	ctx := context.Background()

	const stream = 7
	spec := testSpec()
	for i := 0; i < 25; i++ {
		d, est, err := src.Decide(ctx, stream, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Observe(ctx, stream, alert.Feedback{
			Decision: d, Latency: est.LatMean * 1.1, CompletedStage: -1, IdlePowerW: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := src.ExportStream(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || snap.Decisions != 25 {
		t.Fatalf("snapshot %+v, want version 2, 25 decisions", snap)
	}
	// The session left the source node with the export.
	if _, err := src.ExportStream(ctx, stream); !errors.Is(err, ErrNoSession) {
		t.Fatalf("re-export error = %v, want ErrNoSession", err)
	}

	if err := dst.ImportStream(ctx, stream, snap); err != nil {
		t.Fatal(err)
	}
	// The imported session is the exported one, bit for bit.
	back, err := dst.ExportStream(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if back != snap {
		t.Fatalf("round-tripped snapshot changed:\n got %+v\nwant %+v", back, snap)
	}

	// An invalid snapshot is refused client-side by the server with a plain
	// error, not a panic or silent accept.
	var bad alert.SessionSnapshot
	if err := dst.ImportStream(ctx, stream, bad); err == nil {
		t.Fatal("importing a zero snapshot succeeded, want refusal")
	}
}
