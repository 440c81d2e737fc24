// Command alertserve hosts the ALERT network serving front end: an
// alert.Server (shared decision engine + sharded stream table) behind the
// internal/netserve HTTP/JSON API, with bounded admission, periodic idle-
// stream eviction, and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	alertserve -addr 127.0.0.1:8372 -platform CPU1 -task image
//	alertserve -addr :8372 -max-inflight 256 -max-queue 1024 -idle-evict 10m
//	alertserve -addr 127.0.0.1:8372 -binary-addr 127.0.0.1:8373
//	alertserve -addr :8372 -node-id n1
//	alertserve -addr 127.0.0.1:8372 -node-id n1 -membership -peers host2:8372,host3:8372
//
// -node-id gives the node a cluster identity, echoed in GET /v1/stats and
// in every decide reply: routing clients (client/cluster) are told the
// member set, route streams by consistent hashing, and migrate live
// sessions between nodes with GET /v1/streams/{id}/snapshot and
// PUT /v1/streams/{id}. cmd/alertload -addrs drives such a cluster.
//
// -membership additionally runs the self-healing layer: the node
// heartbeats its -peers seeds (lease-based failure detection, view served on
// GET /v1/membership), replicates each stream's checkpoint to its ring
// successor every -replicate-every, and when a peer's lease expires
// restores the streams it owned from the freshest replicated checkpoint —
// no external orchestrator. Clients subscribed to the membership view
// (client/cluster.StartSync) follow the cluster through the failover.
//
// -binary-addr adds a second listener speaking the internal/binwire
// framed protocol for the per-input loop (decide, observe, decide-batch;
// the stream ops stay on HTTP): persistent pipelined connections, each serving
// everything it has read as one burst and answering it with one write, out
// of buffers it owns. Its address is advertised
// in GET /v1/stats, so clients built with PreferBinary upgrade to it
// automatically; cmd/alertload -wire=binary drives it directly. Overload
// and drain produce error frames carrying the same retry_after_ms hint
// the HTTP path sends as a Retry-After header.
//
// Clients talk to it with the typed client package (client/) or plain
// HTTP; cmd/alertload -addr drives it with scenario-shaped load. On
// shutdown the server drains: new requests get 503 + Retry-After while
// everything already admitted finishes, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/selfheal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "alertserve:", err)
		os.Exit(1)
	}
}

// run is main with injectable arguments, output, and readiness callback
// (invoked with the bound address once the listener is up), so the server
// is testable end-to-end without a subprocess. It serves until ctx is
// canceled, then drains and returns.
func run(ctx context.Context, args []string, stdout io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("alertserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address (host:port; port 0 picks a free port)")
	platName := fs.String("platform", "CPU1", "Embedded | CPU1 | CPU2 | GPU")
	task := fs.String("task", "image", "image | sentence")
	shards := fs.Int("shards", 0, "stream-table shards (0 = one per CPU)")
	maxInflight := fs.Int("max-inflight", 0, "admission gate: concurrent requests (0 = default 64)")
	maxQueue := fs.Int("max-queue", 0, "admission gate: waiting requests before 429 (0 = 2x max-inflight)")
	retryAfter := fs.Duration("retry-after", 0, "backoff hint on 429/503 (0 = 50ms)")
	adaptive := fs.Bool("adaptive", false, "let the measured-delay controller move the admission limits; -max-inflight/-max-queue become initial bounds")
	sloShed := fs.Bool("slo-shed", false, "shed requests whose deadline is predicted unmeetable at admission (429 + drain-estimate Retry-After)")
	binaryAddr := fs.String("binary-addr", "", "binwire listen address (host:port; empty = HTTP/JSON only)")
	nodeID := fs.String("node-id", "", "cluster identity advertised in /v1/stats (empty = standalone)")
	peers := fs.String("peers", "", "comma-separated peer addresses the membership layer heartbeats first (requires -membership)")
	idleEvict := fs.Duration("idle-evict", 0, "evict sessions idle longer than this, swept at the same period (0 = never)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	memberOn := fs.Bool("membership", false, "run the membership + self-healing layer (requires -node-id; -peers are its heartbeat seeds)")
	advertise := fs.String("advertise", "", "address peers and clients dial to reach this node (default: the bound listen address)")
	heartbeat := fs.Duration("heartbeat", 0, "membership heartbeat period (0 = 250ms)")
	suspectAfter := fs.Duration("suspect-after", 0, "silence before a peer is suspected (0 = 4x heartbeat)")
	deadAfter := fs.Duration("dead-after", 0, "silence before a suspect is declared dead (0 = 3x suspect-after)")
	replicateEvery := fs.Duration("replicate-every", 0, "checkpoint-replication period to ring successors (0 = 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memberOn && *nodeID == "" {
		return errors.New("-membership requires -node-id")
	}
	if *peers != "" && !*memberOn {
		return errors.New("-peers are the membership seeds and require -membership")
	}

	plat, err := alert.PlatformByName(*platName)
	if err != nil {
		return err
	}
	models := alert.ImageCandidates()
	if strings.HasPrefix(strings.ToLower(*task), "sent") {
		models = alert.SentenceCandidates()
	}

	srv, err := alert.NewServer(plat, models, alert.ServerOptions{Shards: *shards})
	if err != nil {
		return err
	}
	defer srv.Close()
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	// Bind before building the front end: the membership layer advertises
	// the bound address, which is only known once the listener is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cfg := netserve.Config{
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		RetryAfter:  *retryAfter,
		Adaptive:    *adaptive,
		SLOShed:     *sloShed,
		NodeID:      *nodeID,
	}
	var agent *membership.Agent
	var heal *selfheal.Manager
	if *memberOn {
		selfAddr := *advertise
		if selfAddr == "" {
			selfAddr = ln.Addr().String()
			if host, _, err := net.SplitHostPort(selfAddr); err == nil {
				if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
					ln.Close()
					return fmt.Errorf("listening on the unspecified address %s: peers cannot dial it, set -advertise", selfAddr)
				}
			}
		}
		agent, err = membership.New(membership.Config{
			ID:   *nodeID,
			Addr: selfAddr,
			// Wall-clock nanoseconds: strictly above anything a previous
			// instance of this ID ever advertised, so the cluster's memory
			// of our past death cannot outvote this incarnation.
			Incarnation:    uint64(time.Now().UnixNano()),
			Seeds:          peerList,
			HeartbeatEvery: *heartbeat,
			SuspectAfter:   *suspectAfter,
			DeadAfter:      *deadAfter,
			Transport:      &membership.HTTPTransport{},
			OnChange: func(v membership.View) {
				if heal != nil {
					heal.OnViewChange(v)
				}
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stdout, "alertserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			ln.Close()
			return err
		}
		re := *replicateEvery
		if re == 0 {
			re = 2 * time.Second
		}
		heal, err = selfheal.New(selfheal.Config{
			NodeID:         *nodeID,
			Addr:           selfAddr,
			Agent:          agent,
			Server:         srv,
			ReplicateEvery: re,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stdout, "alertserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			ln.Close()
			return err
		}
		cfg.Membership = agent
		cfg.Recovery = heal
	}
	front := netserve.New(srv, cfg)

	// The binary listener shares the front end's admission gate, stream
	// table, and drain state — it is a second transport, not a second
	// server. Its address rides GET /v1/stats so PreferBinary clients
	// upgrade to it on their own.
	var bserver *netserve.BinaryServer
	if *binaryAddr != "" {
		bln, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			ln.Close()
			return err
		}
		bserver = netserve.NewBinary(front, bln, netserve.BinaryConfig{})
		go bserver.Serve()
	}

	fmt.Fprintf(stdout, "alertserve: listening on %s platform=%s task=%s shards=%d\n",
		ln.Addr(), plat.Name, *task, srv.Shards())
	if bserver != nil {
		fmt.Fprintf(stdout, "alertserve: binary listener on %s\n", bserver.Addr())
	}
	if *nodeID != "" {
		fmt.Fprintf(stdout, "alertserve: cluster node %q\n", *nodeID)
	}
	if *memberOn {
		fmt.Fprintf(stdout, "alertserve: membership on, advertising %s, %d seeds\n", agent.Addr(), len(peerList))
		go agent.Run(ctx)
		go heal.Run(ctx)
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	// Periodic idle-stream reaper, so abandoned streams cannot grow the
	// table forever on a long-lived server.
	reaperDone := make(chan struct{})
	if *idleEvict > 0 {
		go func() {
			defer close(reaperDone)
			tick := time.NewTicker(*idleEvict)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if n := srv.EvictIdle(*idleEvict); n > 0 {
						fmt.Fprintf(stdout, "alertserve: evicted %d idle streams\n", n)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	} else {
		close(reaperDone)
	}

	hs := &http.Server{Handler: front}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	// The reaper shares stdout; join it before writing again so a tick in
	// flight cannot race the shutdown prints.
	<-reaperDone

	// Graceful drain: flip the front end first so keep-alive connections
	// get 503 + Retry-After instead of hanging, then close the listener
	// and wait for in-flight requests.
	fmt.Fprintln(stdout, "alertserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := front.Drain(dctx)
	if bserver != nil {
		// Drain first, close after: between the two, binary callers get 503
		// error frames with the Retry-After hint instead of a dead socket.
		bserver.Close()
		fmt.Fprintf(stdout, "alertserve: binary listener closed; served %s\n", bserver.BinStats())
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	fmt.Fprintf(stdout, "alertserve: drained; served %s\n", front.NetStats())
	fmt.Fprintf(stdout, "alertserve: stream table %s\n", srv.Stats())
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}
