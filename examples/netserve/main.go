// Netserve: host the ALERT network serving front end on a loopback port
// and drive it through the typed client — decide → observe round trips,
// a batched dispatch, stream listing/eviction, and a graceful drain.
// This is cmd/alertserve and client/ in one self-contained process.
//
//	go run ./examples/netserve
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/netserve"
)

func main() {
	// The serving stack: shared decision engine + sharded stream table
	// (alert.Server), wrapped by the HTTP front end with a bounded
	// admission gate.
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	front := netserve.New(srv, netserve.Config{MaxInflight: 64, MaxQueue: 256})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: front}
	go hs.Serve(ln)
	defer hs.Close()
	fmt.Printf("front end listening on %s\n", ln.Addr())

	c, err := client.New("http://"+ln.Addr().String(), client.Options{MaxRetries: 3})
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
		err = c.Observe(ctx, 1, alert.Feedback{
			Decision:       d,
			Latency:        est.LatMean * 1.3,
			CompletedStage: -1,
			IdlePowerW:     5,
		})
		if err != nil {
			log.Fatal(err)
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
		log.Fatal(err)
	}
	fmt.Printf("batch of %d served; stream 2 chose model %d at %.1f W\n",
		len(res), res[0].Decision.Model, res[0].Decision.CapW)

	ids, err := c.Streams(ctx)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live streams: %v\n", ids)
	fmt.Printf("serve: %s\n", stats.Serve)
	fmt.Printf("net:   %s\n", stats.Net)

	// Evict the contended stream, then drain: new requests would now get
	// 503 + Retry-After while in-flight ones finish.
	if err := c.EvictStream(ctx, 1); err != nil {
		log.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := front.Drain(dctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
