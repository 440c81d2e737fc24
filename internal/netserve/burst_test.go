package netserve

import (
	"context"
	"encoding/binary"
	"math"
	"net"
	"strings"
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
	bs := startBinary(t, front)
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
	bs := startBinary(t, front)
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

// TestBinaryBurstPartlyAdmitted pins a burst's admission when it cannot all
// be admitted at once: by a gate smaller than the burst, and by a drain that
// starts between the burst's decode and its admission.
func TestBinaryBurstPartlyAdmitted(t *testing.T) {
	t.Run("gate smaller than the burst", testBurstGateSmallerThanBurst)
	t.Run("drain before admission", testBurstDrainBeforeAdmission)
}

// testBurstGateSmallerThanBurst pipelines one 64-frame burst — decides and
// observes over six streams, one observe whose feedback names no model and
// one malformed decide — at a gate that admits 5: the burst's admission
// grants a prefix and the rest follows in further passes. Every id must be
// answered exactly once, every decision must equal an in-process replay of
// the valid ops in arrival order, every slot must come back, and the
// counters must account for every frame.
func testBurstGateSmallerThanBurst(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{MaxInflight: 5})
	bs := startBinary(t, front)
	rc := dialBinary(t, bs.Addr())
	replay := testAlertServer(t, 2)

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const ops, badObserve, badDecide = 64, 21, 42
	type expected struct {
		d   alert.Decision
		est alert.Estimate
	}
	want := make(map[uint64]expected)
	var burst []byte
	for i := 1; i <= ops; i++ {
		id, stream := uint64(i), i%6
		switch {
		case i == badObserve:
			burst = binwire.AppendObserve(burst, id, stream, alert.Feedback{Decision: alert.Decision{Model: 9999}, Latency: 0.1})
		case i == badDecide:
			burst = append(burst, malformedFrame(binwire.MsgDecide, id)...)
		case i%3 == 0:
			fb := alert.Feedback{Decision: alert.Decision{Model: 1, Cap: 2}, Latency: 0.03 + 0.01*float64(i%4), CompletedStage: -1}
			burst = binwire.AppendObserve(burst, id, stream, fb)
			if err := replay.Observe(stream, fb); err != nil {
				t.Fatal(err)
			}
		default:
			burst = binwire.AppendDecide(burst, id, stream, spec)
			d, est := replay.Decide(stream, spec)
			want[id] = expected{d, est}
		}
	}
	rc.send(burst)

	rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := make(map[uint64]int)
	for i := 0; i < ops; i++ {
		f := rc.next()
		seen[f.ID]++
		switch f.Type {
		case binwire.MsgDecideResp:
			d, est, _, err := binwire.DecodeDecideResp(f.Body)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[f.ID]
			if !ok {
				t.Fatalf("decision for id %d, which was not a valid decide", f.ID)
			}
			if !sameDecision(d, w.d) || math.Float64bits(est.LatMean) != math.Float64bits(w.est.LatMean) ||
				math.Float64bits(est.Energy) != math.Float64bits(w.est.Energy) {
				t.Fatalf("id %d: decision %+v != in-process replay %+v", f.ID, d, w.d)
			}
		case binwire.MsgObserveResp:
			if f.ID%3 != 0 || f.ID == badObserve {
				t.Fatalf("ack for id %d, which was not a valid observe", f.ID)
			}
		case binwire.MsgError:
			code, _, msg, _ := binwire.DecodeError(f.Body)
			if (f.ID != badObserve && f.ID != badDecide) || code != 400 {
				t.Fatalf("id %d: error %d %q", f.ID, code, msg)
			}
		default:
			t.Fatalf("id %d: frame type %d", f.ID, f.Type)
		}
	}
	for id := uint64(1); id <= ops; id++ {
		if seen[id] != 1 {
			t.Fatalf("id %d answered %d times, want once", id, seen[id])
		}
	}
	if in, q := front.gate.Occupancy(); in != 0 || q != 0 {
		t.Errorf("gate occupancy %d/%d after every reply, want 0/0", in, q)
	}
	front.mu.Lock()
	inflight := front.inflight
	front.mu.Unlock()
	if inflight != 0 {
		t.Errorf("front end inflight %d after every reply, want 0", inflight)
	}
	if snap := bs.BinStats(); snap.Decides+snap.Observes+snap.BadFrames != ops || snap.BadFrames != 2 {
		t.Errorf("counters: %d decides + %d observes + %d bad = %d, want %d with 2 bad",
			snap.Decides, snap.Observes, snap.BadFrames, snap.Decides+snap.Observes+snap.BadFrames, ops)
	}
}

// testBurstDrainBeforeAdmission flips Drain after a burst was decoded and
// before it is admitted, by driving a connection's serve loop by hand:
// every pending op must be refused 503 "draining" and hold no slot.
func testBurstDrainBeforeAdmission(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{MaxInflight: 5})
	c := &binConn{srv: front.binary, engine: front.alert.NewBurst()} // the test is the connection's goroutine

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	fb := alert.Feedback{Decision: alert.Decision{Model: 1, Cap: 2}, Latency: 0.05, CompletedStage: -1}
	const ops = 8
	for i := 1; i <= ops; i++ {
		frame := binwire.AppendDecide(nil, uint64(i), i, spec)
		if i%2 == 0 {
			frame = binwire.AppendObserve(nil, uint64(i), i, fb)
		}
		f, _, err := binwire.ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		c.serveFrame(f)
	}
	if len(c.pending) != ops || c.frames != 0 {
		t.Fatalf("%d ops pending and %d replies after decode, want %d and 0", len(c.pending), c.frames, ops)
	}
	if in, _ := front.gate.Occupancy(); in != 0 {
		t.Fatalf("%d slots taken at decode, want 0", in)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := front.Drain(ctx); err != nil {
		t.Fatalf("Drain with nothing admitted: %v", err)
	}
	c.serve()

	seen := make(map[uint64]bool)
	for rest := c.wbuf; len(rest) > 0; {
		f, n, err := binwire.ParseFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		code, _, msg, _ := binwire.DecodeError(f.Body)
		if f.Type != binwire.MsgError || code != 503 || !strings.Contains(msg, "draining") {
			t.Fatalf("id %d: frame type %d code %d %q, want a 503 draining error", f.ID, f.Type, code, msg)
		}
		seen[f.ID] = true
	}
	if len(seen) != ops || c.frames != ops {
		t.Fatalf("%d distinct rejects in %d frames, want %d", len(seen), c.frames, ops)
	}
	if in, q := front.gate.Occupancy(); in != 0 || q != 0 {
		t.Errorf("gate occupancy %d/%d after the refusals, want 0/0", in, q)
	}
	if snap := front.BinStats(); snap.RejectedDraining != ops || snap.Decides+snap.Observes != 0 {
		t.Errorf("counters: %d draining rejects, %d served; want %d and 0", snap.RejectedDraining, snap.Decides+snap.Observes, ops)
	}
}

// malformedFrame is a well-framed request of the given type whose one-byte
// body no decoder accepts.
func malformedFrame(typ binwire.MsgType, id uint64) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, 11)
	frame = append(frame, binwire.Version, byte(typ))
	frame = binary.LittleEndian.AppendUint64(frame, id)
	return append(frame, 0)
}

// TestBinaryCloseMidBurst closes the listener while a connection is inside
// a (deliberately slow) burst: Close waits for the burst, so when it
// returns every slot is back and Drain has nothing to wait for.
func TestBinaryCloseMidBurst(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{ServiceDelay: 100 * time.Millisecond})
	bs := startBinary(t, front)
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
	bs := startBinary(t, front)
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

// TestBinaryBurstBoundedByReadBuffer writes 2,000 pipelined decide frames
// in one Write — several read buffers' worth — at a gate wide enough for
// all of them, so nothing but the connection's read buffer bounds a burst.
// Every decide must be answered, no burst may serve more frames than one
// binwire.ReadBuffer holds (a burst's replies leave in one Write, so the
// server's Writes are counted), and every gate slot must come back.
func TestBinaryBurstBoundedByReadBuffer(t *testing.T) {
	front := New(testAlertServer(t, 2), Config{MaxInflight: 4096})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBinary(front, ln, BinaryConfig{})
	t.Cleanup(func() { bs.Close() })
	counter := &replyCounter{t: t}
	go func() {
		conn, err := ln.Accept()
		if err != nil || !bs.track(conn) {
			return
		}
		counter.Conn = conn
		bs.serveConn(counter)
	}()
	rc := dialRaw(t, bs.Addr())

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const ops = 2000
	var burst []byte
	for i := 1; i <= ops; i++ {
		burst = binwire.AppendDecide(burst, uint64(i), i%64, spec)
	}
	perBuffer := binwire.ReadBuffer / (len(burst) / ops)
	if ops <= 2*perBuffer {
		t.Fatalf("%d frames do not span several %d-frame buffers", ops, perBuffer)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := rc.conn.Write(burst)
		wrote <- err
	}()
	rc.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	seen := make(map[uint64]bool)
	for i := 0; i < ops; i++ {
		f := rc.next()
		if f.Type != binwire.MsgDecideResp {
			t.Fatalf("reply %d: frame type %d for id %d", i, f.Type, f.ID)
		}
		seen[f.ID] = true
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if len(seen) != ops {
		t.Fatalf("%d distinct replies, want %d", len(seen), ops)
	}
	if got := counter.most.Load(); got > int64(perBuffer) || got < 2 {
		t.Errorf("largest burst answered %d frames in one Write, want 2..%d (one read buffer)", got, perBuffer)
	}
	if in, q := front.gate.Occupancy(); in != 0 || q != 0 {
		t.Errorf("gate occupancy %d/%d after every reply, want 0/0", in, q)
	}
}

// replyCounter is a server-side connection that keeps the most frames it
// was handed in one Write.
type replyCounter struct {
	net.Conn
	t    *testing.T
	most atomic.Int64
}

func (c *replyCounter) Write(p []byte) (int, error) {
	frames := int64(0)
	for rest := p; len(rest) > 0; frames++ {
		_, n, err := binwire.ParseFrame(rest)
		if err != nil {
			c.t.Errorf("server wrote a broken frame: %v", err)
			break
		}
		rest = rest[n:]
	}
	for {
		if old := c.most.Load(); frames <= old || c.most.CompareAndSwap(old, frames) {
			break
		}
	}
	return c.Conn.Write(p)
}
