package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
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

// TestBinaryListenerFlag boots the server with both listeners, upgrades a
// PreferBinary client onto the advertised binary address, and checks the
// data plane really rode the binary transport before a clean drain.
func TestBinaryListenerFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-binary-addr", "127.0.0.1:0", "-shards", "2",
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

	c, err := client.New("http://"+addr, client.Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, est, err := c.Decide(ctx, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(ctx, 1, alert.Feedback{Decision: d, Latency: est.LatMean, CompletedStage: -1}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BinaryAddr == "" {
		t.Error("stats do not advertise the binary listener")
	}
	if stats.Bin == nil || stats.Bin.Decides != 1 || stats.Bin.Observes != 1 {
		t.Errorf("binary counters = %+v, want 1 decide / 1 observe", stats.Bin)
	}
	if stats.Net.Decides != 0 {
		t.Errorf("HTTP served %d decides, want 0 (data plane should ride binary)", stats.Net.Decides)
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
	for _, want := range []string{"binary listener on", "binary listener closed", "drained"} {
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
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-binary-addr", "256.256.256.256:99999"}, &out, nil); err == nil {
		t.Error("unlistenable binary address must error")
	}
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-node-id", "n1", "-peers", "10.0.0.2:8372"}, &out, nil); err == nil {
		t.Error("-peers without -membership must error: they are only the membership seeds")
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

// TestAdaptiveFlags: -adaptive and -slo-shed reach the admission gate and
// surface in the /v1/stats overload snapshot, with the static flags-off
// escape hatch staying the default.
func TestAdaptiveFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shards", "1",
			"-adaptive", "-slo-shed", "-max-inflight", "4", "-max-queue", "8",
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
	if !stats.Overload.Adaptive || !stats.Overload.SLOShed {
		t.Errorf("overload flags = adaptive %v slo_shed %v, want both true",
			stats.Overload.Adaptive, stats.Overload.SLOShed)
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
