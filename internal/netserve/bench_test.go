package netserve_test

import (
	"context"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/netserve"
)

// BenchmarkNetServe measures the network front end over a loopback
// listener through the real typed client — the full serving stack a remote
// caller pays: encode, round trip, admission gate, stream table, decode.
//
//	decide   one JSON request per decision — the per-request floor
//	batch64  64 decisions per JSON request — what batching amortizes
//	binary   one binwire frame per decision over the pipelined binary
//	         transport — what the frame encoding plus server-side
//	         bursts buy back without the caller batching anything
//	binary-loop  Decide then Observe per iteration over the same
//	         transport: the only row here that closes the paper's loop
//
// The first three send no Observe, so the streams' filters never move — but the
// engine memoizes nothing, so every decision here is a real scan of the
// 210-candidate space, not a replay of a remembered answer (up to BENCH_8
// these rows timed the transport over a 23 ns decision-cache hit). The
// repository benchmark (bench/README.md) is the full decide → observe loop.
//
// The first three report decisions/s; cmd/benchreport derives the
// batch-vs-single and binary-vs-JSON amplifications and gates on them
// (BENCH_5.json / BENCH_7.json). binary-loop reports loops/s, ungated.
func BenchmarkNetServe(b *testing.B) {
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	fe := netserve.New(srv, netserve.Config{MaxInflight: 256, MaxQueue: 4096})
	ts := httptest.NewServer(fe)
	defer ts.Close()
	c, err := client.New(ts.URL, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}

	b.Run("decide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Decide(ctx, i%64, spec); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
	})

	b.Run("batch64", func(b *testing.B) {
		const size = 64
		reqs := make([]alert.BatchRequest, size)
		for i := range reqs {
			reqs[i] = alert.BatchRequest{Stream: i, Spec: spec}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := c.DecideBatch(ctx, reqs)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != size {
				b.Fatalf("%d results, want %d", len(res), size)
			}
		}
		b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "decisions/s")
	})

	// binaryClient attaches a binary listener to the front end and returns
	// a client on it, warmed at full parallelism: dialing the pool,
	// spinning up reader/writer goroutines, and creating 64 sessions would
	// otherwise dominate short -benchtime runs and understate the steady
	// state the perf gate measures.
	binaryClient := func(b *testing.B) *client.Client {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		bs := netserve.NewBinary(fe, ln, netserve.BinaryConfig{})
		go bs.Serve()
		b.Cleanup(func() { bs.Close() })
		bc, err := client.New(ts.URL, client.Options{BinaryAddr: bs.Addr()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(bc.Close)
		var warm sync.WaitGroup
		for g := 0; g < 64; g++ {
			warm.Add(1)
			go func(g int) {
				defer warm.Done()
				for i := 0; i < 20; i++ {
					if _, _, err := bc.Decide(ctx, g, spec); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		warm.Wait()
		return bc
	}

	b.Run("binary", func(b *testing.B) {
		bc := binaryClient(b)
		// Pipelined: many goroutines keep singleton requests in flight; the
		// client's writer puts whatever is queued into one write and the
		// server serves each read's worth as one burst. The deep
		// parallelism is the transport's design point — every waiting
		// request rides someone else's syscall.
		var stream atomic.Int64
		b.SetParallelism(64)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id := int(stream.Add(1)) % 64
			for pb.Next() {
				if _, _, err := bc.Decide(ctx, id, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
	})

	// binary-loop is the paper's loop over the wire — Decide, then Observe
	// what was decided — on 64 goroutines with a stream each, so the filters
	// move, observes and decides share bursts, and acks are on the clock.
	// It is the row of this series that a change to burst handling moves
	// (the decide-only rows above cannot see an observe ack); the
	// repository benchmark's loop-binwire workload (bench/README.md) is the
	// same shape at 1,024 streams with an oracle. Reported as loops/s; no
	// gate.
	b.Run("binary-loop", func(b *testing.B) {
		bc := binaryClient(b)
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for g := 0; g < 64; g++ {
			wg.Add(1)
			go func(stream int) {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) {
					d, est, err := bc.Decide(ctx, stream, spec)
					if err == nil {
						err = bc.Observe(ctx, stream, alert.Feedback{Decision: d, Latency: est.LatMean, CompletedStage: -1})
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "loops/s")
	})
}

// BenchmarkBinaryServerDecide isolates the server's cost per binary decide
// by driving the listener with pre-encoded frames over one connection and
// reading replies with a reused frame reader — the client side of the loop
// allocates nothing, so allocs/op IS the server's steady-state allocation
// count per request. cmd/benchreport gates it at zero (BENCH_7.json): the
// decode → admit → burst → decide → encode path must stay allocation
// free or the transport's throughput story degrades under GC pressure.
// The decide in the middle is a real candidate scan (the engine memoizes
// nothing), so ns/op is transport plus scan.
func BenchmarkBinaryServerDecide(b *testing.B) {
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	fe := netserve.New(srv, netserve.Config{MaxInflight: 256, MaxQueue: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	bs := netserve.NewBinary(fe, ln, netserve.BinaryConfig{})
	go bs.Serve()
	defer bs.Close()

	conn, err := net.Dial("tcp", bs.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	frame := binwire.AppendDecide(nil, 1, 5, spec)
	rd := binwire.NewReader(conn)

	roundTrip := func() {
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		f, err := rd.Next()
		if err != nil {
			b.Fatal(err)
		}
		if f.Type != binwire.MsgDecideResp {
			b.Fatalf("frame type %d", f.Type)
		}
	}
	// Warm the path: session created, buffers sized, pools primed.
	for i := 0; i < 100; i++ {
		roundTrip()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/s")
}
