package netserve

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
)

// The tests in this file pin what a connection's run-to-completion bursts
// guarantee beyond the per-request tests in binary_test.go: arrival order
// without awaiting, progress past a gate smaller than the pipeline, slots
// returned whatever ends the connection, and connections that cannot stall
// one another.

// TestBinaryBurstOrder pipelines observe, decide, observe, decide, … for
// three streams on different shards in ONE write, never awaiting a reply,
// and requires every decision to be bit-identical to a solo alert.Scheduler
// fed the same sequence: the burst must apply a stream's ops in arrival
// order even though the client gave it no reply to wait on.
func TestBinaryBurstOrder(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	streams := []int{3, 4, 5}
	const rounds = 25
	type expected struct {
		d   alert.Decision
		est alert.Estimate
	}
	want := make(map[uint64]expected)
	// Each stream's frames, generated against its own solo scheduler: the
	// feedback of round r reports the decision of round r-1, so a decide
	// that overtook — or was overtaken by — a neighbouring observe sees a
	// different filter and decides differently.
	perStream := make([][][]byte, len(streams))
	id := uint64(0)
	for si, stream := range streams {
		solo, err := alert.NewScheduler(alert.CPU1(), alert.ImageCandidates(), alert.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fb := alert.Feedback{Decision: alert.Decision{Model: 1, Cap: 2}, Latency: 0.05, CompletedStage: -1}
		for r := 0; r < rounds; r++ {
			solo.Observe(fb)
			id++
			frame := binwire.AppendObserve(nil, id, stream, fb)
			d, est := solo.Decide(spec)
			id++
			frame = binwire.AppendDecide(frame, id, stream, spec)
			want[id] = expected{d, est}
			perStream[si] = append(perStream[si], frame)
			fb = alert.Feedback{Decision: d, Latency: est.LatMean * (0.8 + 0.15*float64((r+si)%5)), CompletedStage: -1}
		}
	}
	var burst []byte
	for r := 0; r < rounds; r++ {
		for si := range streams {
			burst = append(burst, perStream[si][r]...)
		}
	}
	rc.send(burst)

	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	decides := 0
	for i := 0; i < 2*rounds*len(streams); i++ {
		f := rc.next()
		if f.Type == binwire.MsgObserveResp {
			continue
		}
		if f.Type != binwire.MsgDecideResp {
			t.Fatalf("frame %d: type %d id %d", i, f.Type, f.ID)
		}
		d, est, _, err := binwire.DecodeDecideResp(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[f.ID]
		if !ok {
			t.Fatalf("decide reply for unknown id %d", f.ID)
		}
		if !sameDecision(d, w.d) || math.Float64bits(est.LatMean) != math.Float64bits(w.est.LatMean) ||
			math.Float64bits(est.Energy) != math.Float64bits(w.est.Energy) {
			t.Fatalf("id %d: pipelined decision %+v != solo scheduler %+v", f.ID, d, w.d)
		}
		decides++
	}
	if decides != rounds*len(streams) {
		t.Fatalf("%d decide replies, want %d", decides, rounds*len(streams))
	}
}

// TestBinaryBurstLargerThanGate pipelines 64 deadline-free ops on one
// connection at a gate that admits 2 and queues 4: the connection must run
// what it holds rather than wait at the gate for its own slots, so every op
// is answered — none hangs, and none is shed, because a lone connection
// never has more than the gate's worth outstanding.
func TestBinaryBurstLargerThanGate(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{MaxInflight: 2, MaxQueue: 4})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())

	spec := alert.Spec{Objective: alert.MinimizeEnergy, AccuracyGoal: 0.9} // no deadline: admission may wait forever
	fb := alert.Feedback{Decision: alert.Decision{Model: 1, Cap: 2}, Latency: 0.05, CompletedStage: -1}
	const ops = 64
	var burst []byte
	for i := 1; i <= ops; i++ {
		if i%2 == 1 {
			burst = binwire.AppendObserve(burst, uint64(i), i%7, fb)
		} else {
			burst = binwire.AppendDecide(burst, uint64(i), i%7, spec)
		}
	}
	rc.send(burst)
	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := make(map[uint64]bool)
	for i := 0; i < ops; i++ {
		f := rc.next()
		if f.Type != binwire.MsgObserveResp && f.Type != binwire.MsgDecideResp {
			t.Fatalf("reply %d: frame type %d for id %d, want an ack or a decision", i, f.Type, f.ID)
		}
		seen[f.ID] = true
	}
	if len(seen) != ops {
		t.Fatalf("%d distinct replies, want %d", len(seen), ops)
	}
	if snap := bs.BinStats(); snap.Decides != ops/2 || snap.Observes != ops/2 || snap.RejectedOverload != 0 {
		t.Errorf("counters = %d decides, %d observes, %d shed; want %d/%d/0", snap.Decides, snap.Observes, snap.RejectedOverload, ops/2, ops/2)
	}
	if inflight := front.OverloadStats().Inflight; inflight != 0 {
		t.Errorf("%d slots still held after every reply", inflight)
	}
}

// TestBinaryCloseMidBurst closes the listener while a connection is inside
// a (deliberately slow) burst: Close waits for the burst, so when it
// returns every slot is back and Drain has nothing to wait for.
func TestBinaryCloseMidBurst(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{ServiceDelay: 100 * time.Millisecond})
	bs := startBinary(t, front, BinaryConfig{})
	rc := dialBinary(t, bs.Addr())

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	var burst []byte
	for i := 1; i <= 8; i++ {
		burst = binwire.AppendDecide(burst, uint64(i), i, spec)
	}
	rc.send(burst)
	waitFor(t, "the burst to be admitted", func() bool { return front.OverloadStats().Inflight > 0 })
	bs.Close()
	if inflight := front.OverloadStats().Inflight; inflight != 0 {
		t.Fatalf("%d slots held after Close", inflight)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := front.Drain(ctx); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
	if served := front.alert.Stats().Decisions; served == 0 {
		t.Error("the admitted burst was dropped, not served")
	}
}

// TestBinaryStalledReaderStallsNobodyElse is the "stalled reader" hole:
// connection A pipelines decides and never reads, until its socket buffers
// are full and the server is stuck writing to it. Connection B's serial
// decides must keep completing, and A must hold no admission slot while it
// is stuck. (With a dispatcher shared by all connections, its Write to A
// froze B and pinned the gate.)
func TestBinaryStalledReaderStallsNobodyElse(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{})
	bs := startBinary(t, front, BinaryConfig{})
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}

	a, err := net.Dial("tcp", bs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.(*net.TCPConn).SetReadBuffer(4 << 10)
	var chunk []byte
	for i := 1; i <= 256; i++ {
		chunk = binwire.AppendDecide(chunk, uint64(i), 100+i%8, spec)
	}
	var written atomic.Int64
	go func() {
		for {
			n, err := a.Write(chunk)
			written.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	// A's writer stops making progress once the server stopped reading A,
	// which it does only when its own Write to A is stuck.
	last, since := int64(-1), time.Now()
	waitFor(t, "connection A to back up", func() bool {
		if w := written.Load(); w != last {
			last, since = w, time.Now()
		}
		return last > 0 && time.Since(since) > 300*time.Millisecond
	})

	b := dialBinary(t, bs.Addr())
	b.conn.SetDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 50; i++ {
		b.decide(7, spec)
	}
	waitFor(t, "the stalled connection to hold no slot", func() bool { return front.OverloadStats().Inflight == 0 })
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
