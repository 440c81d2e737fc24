package netserve

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
)

// FuzzServeFrame throws arbitrary decide, observe and retired-type frame
// bodies at a live op core through the binwire codec, one connection (a
// net.Pipe) per input. The connection's goroutine runs decode → check →
// admit → engine → encode on whatever the socket delivered, and a panic
// there kills the process, so every body — well-formed with hostile values
// included, like the observe whose feedback names model 9999 — must be
// answered by its reply type or an error frame — a retired type by an error
// frame only; a body over binwire.MaxFrame by a dropped connection — and
// must leave no gate slot held.
func FuzzServeFrame(f *testing.F) {
	srv := testAlertServer(f, 2)
	front := New(srv, Config{})
	bs := front.binary // the fuzzer hands it pipes
	f.Cleanup(func() { front.Close() })

	// ops maps the fuzzed selector onto the two request types and a retired
	// one (5, the old batch frame), and the reply each is served with.
	// (Import bodies are HTTP's, fuzzed by FuzzImportStreamBody.)
	ops := []struct{ req, resp binwire.MsgType }{
		{binwire.MsgDecide, binwire.MsgDecideResp},
		{binwire.MsgObserve, binwire.MsgObserveResp},
		{5, binwire.MsgError},
	}
	// body strips the 14-byte frame header (length, version, type, id) off
	// an encoded frame.
	body := func(frame []byte) []byte { return frame[14:] }

	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, _ := srv.Decide(1, spec)
	srv.EvictStream(1)
	f.Add(uint8(1), body(binwire.AppendObserve(nil, 1, 7, alert.Feedback{Decision: alert.Decision{Model: 9999}, Latency: 0.1})))
	f.Add(uint8(1), body(binwire.AppendObserve(nil, 1, 7, alert.Feedback{Decision: alert.Decision{Cap: -3}, Latency: 0.1})))
	f.Add(uint8(1), body(binwire.AppendObserve(nil, 1, 7, alert.Feedback{Decision: d, Latency: 0.1, CompletedStage: 99, IdlePowerW: 5})))
	f.Add(uint8(0), body(binwire.AppendDecide(nil, 1, 7, spec)))
	f.Add(uint8(0), body(binwire.AppendDecide(nil, 1, -7, alert.Spec{Objective: alert.MaximizeAccuracy, Deadline: -1})))
	oldBatch := []byte{3, 0, 0, 0} // what an old peer's batch frame of three decides carried
	for _, s := range []int{1, 2, 1} {
		oldBatch = append(oldBatch, body(binwire.AppendDecide(nil, 1, s, spec))...)
	}
	f.Add(uint8(2), oldBatch)
	f.Add(uint8(2), []byte{2, 0, 0, 0, 1})                                                                 // declares two requests, carries one byte
	f.Add(uint8(2), []byte{0xff, 0xff, 0xff, 0xff})                                                        // declares 2^32-1 requests
	f.Add(uint8(1), body(binwire.AppendObserve(nil, 1, 7, alert.Feedback{Decision: d, Latency: 0.1}))[1:]) // one byte short
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), make([]byte, binwire.MaxFrame)) // 10 bytes over the frame cap

	const id = 0x1234
	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		op := ops[int(sel)%len(ops)]
		frame := binary.LittleEndian.AppendUint32(nil, uint32(10+len(payload)))
		frame = append(frame, binwire.Version, byte(op.req))
		frame = binary.LittleEndian.AppendUint64(frame, id)
		frame = append(frame, payload...)

		client, server := net.Pipe()
		if !bs.track(server) {
			t.Fatal("binary server closed")
		}
		done := make(chan struct{})
		go func() {
			bs.serveConn(server)
			close(done)
		}()
		// A pipe write returns once the peer has read it all, which the
		// server does before it replies; the deadline turns a hang into a
		// failure.
		client.SetDeadline(time.Now().Add(10 * time.Second))
		// A frame over the cap is a framing error: the server drops the
		// connection unanswered, possibly before it read the whole frame.
		oversized := 10+len(payload) > binwire.MaxFrame
		if _, err := client.Write(frame); err != nil && !oversized {
			t.Fatalf("write: %v", err)
		}
		reply, err := binwire.NewReader(client).Next()
		switch {
		case oversized:
			if err == nil {
				t.Fatalf("type %d: a %d-byte body over the frame cap was answered by type %d", op.req, len(payload), reply.Type)
			}
		case err != nil:
			t.Fatalf("type %d body %x: no reply: %v", op.req, payload, err)
		case reply.ID != id || (reply.Type != op.resp && reply.Type != binwire.MsgError):
			t.Fatalf("type %d body %x: answered by type %d id %d", op.req, payload, reply.Type, reply.ID)
		}
		client.Close()
		<-done
		if ov := front.OverloadStats(); ov.Inflight != 0 || ov.Queued != 0 {
			t.Fatalf("type %d body %x: gate left with %d inflight, %d queued", op.req, payload, ov.Inflight, ov.Queued)
		}
		// Keep inputs independent: whatever sessions this one created go.
		srv.EvictIdle(0)
	})
}
