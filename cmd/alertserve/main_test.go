package main

import (
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/netserve"
)

// TestServeAndDrain boots the server on a free loopback port, drives it
// through the typed client, then cancels the context and checks the drain
// path runs to completion.
func TestServeAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shards", "2", "-idle-evict", "50ms",
		}, &out, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := client.New("http://"+addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, est, err := c.Decide(ctx, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if est.LatMean <= 0 {
		t.Fatalf("empty decision: %+v / %+v", d, est)
	}
	if err := c.Observe(ctx, 1, alert.Feedback{Decision: d, Latency: est.LatMean, CompletedStage: -1}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Net.Decides != 1 || stats.Serve.Decisions != 1 {
		t.Errorf("stats = %+v / %+v, want one decide", stats.Net, stats.Serve)
	}

	// The idle reaper must collect the stream once it goes quiet.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ids, err := c.Streams(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle reaper never evicted streams %v", ids)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	got := out.String()
	for _, want := range []string{"listening on", "draining", "drained", "stream table"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestOnePortServesBothWires boots the server on its one port and drives
// it there twice — an HTTP/JSON client and a PreferBinary client, whose
// connections upgrade to binwire — and checks each decide was counted on
// its own wire before a clean drain.
func TestOnePortServesBothWires(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shards", "2",
		}, &out, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	var stats netserve.StatsResponse
	for stream, opts := range []client.Options{{}, {PreferBinary: true}} {
		c, err := client.New("http://"+addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		d, est, err := c.Decide(ctx, stream, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(ctx, stream, alert.Feedback{Decision: d, Latency: est.LatMean, CompletedStage: -1}); err != nil {
			t.Fatal(err)
		}
		if stats, err = c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Net.Decides != 1 || stats.Net.Observes != 1 {
		t.Errorf("HTTP counters = %+v, want 1 decide / 1 observe", stats.Net.TransportSnapshot)
	}
	if stats.Bin == nil || stats.Bin.Decides != 1 || stats.Bin.Observes != 1 {
		t.Errorf("binwire counters = %+v, want 1 decide / 1 observe", stats.Bin)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	got := out.String()
	for _, want := range []string{"binwire via GET /v1/binwire", "binwire connections closed", "drained"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func TestFlagAndConfigErrors(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	if err := run(ctx, []string{"-no-such-flag"}, &out, nil); err == nil {
		t.Error("unknown flag must error")
	}
	if err := run(ctx, []string{"-platform", "nope"}, &out, nil); err == nil {
		t.Error("unknown platform must error")
	}
	if err := run(ctx, []string{"-addr", "256.256.256.256:99999"}, &out, nil); err == nil {
		t.Error("unlistenable address must error")
	}
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-node-id", "n1", "-peers", "10.0.0.2:8372"}, &out, nil); err == nil {
		t.Error("-peers without -membership must error: they are only the membership seeds")
	}
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-node-id", strings.Repeat("n", binwire.MaxNodeID+1)}, &out, nil); err == nil {
		t.Error("a -node-id too long for a binwire decide reply must error")
	}
}

// TestClusterIdentityFlags: -node-id surfaces in /v1/stats so routing
// clients can verify they reached the member they meant to.
func TestClusterIdentityFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shards", "1",
			"-node-id", "n1",
		}, &out, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := client.New("http://"+addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeID != "n1" {
		t.Errorf("node_id = %q, want n1", stats.NodeID)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), `cluster node "n1"`) {
		t.Errorf("startup banner lacks cluster identity:\n%s", out.String())
	}
}

// TestAdaptiveFlags: -max-inflight and -max-queue reach the admission gate
// as the controller's initial limits and surface in the /v1/stats overload
// snapshot; -adaptive, which chose between two gates, is an unknown flag.
func TestAdaptiveFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-adaptive"}, &out, nil); err == nil {
		t.Fatal("-adaptive accepted; the gate has one mode")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shards", "1",
			"-max-inflight", "4", "-max-queue", "8",
		}, &out, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := client.New("http://"+addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overload == nil {
		t.Fatal("stats.overload missing")
	}
	if stats.Overload.InflightLimit != 4 || stats.Overload.QueueLimit != 8 {
		t.Errorf("initial limits = %d/%d, want 4/8",
			stats.Overload.InflightLimit, stats.Overload.QueueLimit)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestStalledHeaderDisconnected: a client that sends half a request line
// and stalls is disconnected once readHeaderTimeout has passed, and the
// goroutine serving its connection exits with it.
func TestStalledHeaderDisconnected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, io.Discard, func(addr string) { ready <- addr })
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run returned %v", err)
		}
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	baseline := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/deci"); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection (after a 400 reply, which is all
	// it can say about an unparsed request); the slack only keeps a broken
	// bound from hanging the test.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	reply, err := io.ReadAll(conn)
	held := time.Since(start)
	if err != nil {
		t.Fatalf("connection not closed after stalling %v: %v (read %q)", held, err, reply)
	}
	if held < readHeaderTimeout-100*time.Millisecond || held > readHeaderTimeout+2*time.Second {
		t.Fatalf("connection closed after %v, want about readHeaderTimeout (%v)", held, readHeaderTimeout)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after the disconnect, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
