package client_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/netserve"
)

// ExampleClient hosts the network serving front end on a loopback port and
// drives it through the typed client: decide → observe round trips, a
// batched dispatch, stream listing and eviction, and a graceful drain.
// This is cmd/alertserve and the client in one process.
func ExampleClient() {
	// The serving stack: shared decision engine + sharded stream table
	// (alert.Server), wrapped by the HTTP front end with a bounded
	// admission gate.
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 4})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	front := netserve.New(srv, netserve.Config{MaxInflight: 64, MaxQueue: 256})
	ts := httptest.NewServer(front)
	defer ts.Close()

	c, err := client.New(ts.URL, client.Options{MaxRetries: 3})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	ctx := context.Background()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.120, AccuracyGoal: 0.93}

	// One stream's decide → execute → observe loop over the wire. The
	// feedback (latency 1.3x the prediction) teaches the stream's server-
	// side Kalman filter that its environment runs slow.
	for i := 0; i < 50; i++ {
		d, est, err := c.Decide(ctx, 1, spec)
		if err != nil {
			panic(err)
		}
		err = c.Observe(ctx, 1, alert.Feedback{
			Decision:       d,
			Latency:        est.LatMean * 1.3,
			CompletedStage: -1,
			IdlePowerW:     5,
		})
		if err != nil {
			panic(err)
		}
	}

	// A batched dispatch across many streams: one HTTP request, one
	// decision per (stream, spec), results in request order.
	var reqs []alert.BatchRequest
	for stream := 2; stream < 10; stream++ {
		reqs = append(reqs, alert.BatchRequest{Stream: stream, Spec: spec})
	}
	res, err := c.DecideBatch(ctx, reqs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("batch of %d served; stream 2 chose model %d at %.1f W\n",
		len(res), res[0].Decision.Model, res[0].Decision.CapW)

	ids, err := c.Streams(ctx)
	if err != nil {
		panic(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("live streams: %v\n", ids)
	fmt.Printf("serve: decisions=%d observes=%d batches=%d streams=%d\n",
		stats.Serve.Decisions, stats.Serve.Observes, stats.Serve.Batches, stats.Serve.Streams)
	fmt.Printf("net: decides=%d observes=%d batches=%d batch_decisions=%d\n",
		stats.Net.Decides, stats.Net.Observes, stats.Net.Batches, stats.Net.BatchDecisions)

	// Evict the contended stream, then drain: new requests would now get
	// 503 + Retry-After while in-flight ones finish.
	if err := c.EvictStream(ctx, 1); err != nil {
		panic(err)
	}
	if ids, err = c.Streams(ctx); err != nil {
		panic(err)
	}
	fmt.Printf("after evicting stream 1: %v\n", ids)
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := front.Drain(dctx); err != nil {
		panic(err)
	}
	fmt.Println("drained cleanly")
	// Output:
	// batch of 8 served; stream 2 chose model 5 at 45.0 W
	// live streams: [1 2 3 4 5 6 7 8 9]
	// serve: decisions=58 observes=50 batches=1 streams=9
	// net: decides=50 observes=50 batches=1 batch_decisions=8
	// after evicting stream 1: [2 3 4 5 6 7 8 9]
	// drained cleanly
}
