// binwire: the framed binary protocol served over persistent TCP
// connections, reached by upgrading an HTTP connection on the front end's
// own port (GET /v1/binwire, see upgrade). It carries the per-input loop
// only — decide and observe — and leaves batches and the stream ops (evict,
// export, import) to HTTP: many decides travel as pipelined
// decide frames, served as one burst. Like the HTTP handlers it is a codec
// over the op core (ops.go) — decode a frame into an op, encode the result
// or the reject — so the gate, drain state, recovery holds and SLO
// accounting are the same code, not a copy.
// What it adds is that a connection's goroutine serves its input in bursts.
//
// # Why it is fast
//
//  1. binwire frames replace JSON: fixed-width encode/decode into reused
//     buffers, no reflection, no header parsing, bit-exact floats.
//  2. Connections are persistent and pipelined: a client stamps each
//     request with an id and may keep many in flight.
//  3. Each wake-up runs a burst to completion (per-connection group commit):
//     one read brings in what the client has pipelined, up to one
//     binwire.ReadBuffer (16 KiB, about 300 decide frames); every complete
//     frame in it is decoded and checked; the burst is admitted as one
//     unit; its decides AND observes cross into the engine as one group
//     task per shard; it is settled as one unit; every reply, ack and
//     reject is encoded into one buffer and leaves in one Write. 64
//     pipelined requests cost one read, one admission, one task per shard,
//     one settlement and one write, not 64 of each — and a lone request is
//     a burst of one, served at once. No goroutine is shared between
//     connections, so a client that stops reading blocks only its own
//     connection's Write, holding no gate slot.
//
// A burst is never more than one buffer's frames, however deep the client
// pipelines — the rest waits in the socket for the next burst — so the
// pending and held ops, the engine burst and the output buffer are bounded
// by it too (TestBinaryBurstBoundedByReadBuffer).
//
// The steady-state path allocates nothing: frames are parsed where they
// lie in the connection's one read buffer, the pending and held ops, the
// engine burst and the output buffer are the connection's own, grown on
// demand and reused, and every reply is encoded straight out of the engine
// burst.
//
// # Ordering and admission
//
// Every decide and observe is decoded and checked (malformed body, feedback
// outside the candidate set, restoring hold) into a pending list. At the
// burst boundary — before a read that could block or a version reject —
// the list passes the op core's admission half (admit) in arrival order:
// one gate call, one drain check and one s.mu section for the whole list,
// granting the longest prefix that fits without queueing.
// After the burst ran, and BEFORE anything is written, it passes the
// accounting half (finish, release) as one unit: one clock read, one
// controller update for its service samples, one counter update for its
// sojourns, one release of all its slots. So MaxInflight/MaxQueue bound
// both transports together, an accepted request is always served — drain
// waits for it — and a slow reader holds no slot. A connection never waits
// at the gate on slots its own un-run ops hold: what the gate cannot take
// at once waits until the granted prefix ran, and only then may queue, so a
// client may pipeline more than the gate admits. Rejections are error
// frames whose code is the HTTP status and whose retry_after_ms is the
// HTTP body's.
//
// The clock is read once per stage per burst: the burst's start when its
// first decide or observe is decoded — every op of the burst counts its
// sojourn from there — and the settlement instant after the engine
// crossing. An op admitted at once counts as admitted at the start; only
// one that queued at the gate reads the clock again.
//
// Frames on one connection are served in arrival order: the burst applies a
// stream's observes and decides in the order they arrived, and an observe is
// acked after it was APPLIED. A pipelining client therefore sees exactly the
// in-process semantics without awaiting anything (byte-identical decision
// sequences, pinned by TestBinaryBurstOrder and cmd/alertload's wire tests).
package netserve

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/metrics"
)

// BinaryConfig has no fields. The type remains only as NewBinary's
// parameter because bench/alertbench constructs netserve.BinaryConfig{} and
// the benchmark's files are frozen.
type BinaryConfig struct{}

// BinaryServer is a front end's binwire codec: it owns the binwire
// connections — those upgraded from HTTP on GET /v1/binwire, and those a
// raw listener attached with NewBinary accepts — and their counters.
// Every Server has exactly one, built by New; Server.Close closes it.
type BinaryServer struct {
	front *Server
	bin   *metrics.BinCounters

	mu     sync.Mutex
	ln     net.Listener // the raw listener NewBinary attached, if any
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // live serveConn goroutines; Add under mu
}

// NewBinary attaches a raw binwire listener — TCP that speaks binwire from
// its first byte, with no HTTP upgrade — to the front end's BinaryServer
// and returns it; call Serve to start accepting. Its connections share the
// front end's gate, drain state and counters with the upgraded ones.
// It remains for bench/alertbench, which measures binwire on a listener of
// its own; everything else reaches binwire through the front end's HTTP
// port.
func NewBinary(front *Server, ln net.Listener, _ BinaryConfig) *BinaryServer {
	bs := front.binary
	bs.mu.Lock()
	bs.ln = ln
	bs.mu.Unlock()
	return bs
}

// Addr returns the raw listener's address.
func (bs *BinaryServer) Addr() string { return bs.ln.Addr().String() }

// BinStats snapshots the binwire counters.
func (bs *BinaryServer) BinStats() metrics.BinSnapshot { return bs.bin.Snapshot() }

// Serve accepts connections on the raw listener until it fails or Close is
// called, returning nil on a clean Close.
func (bs *BinaryServer) Serve() error {
	for {
		conn, err := bs.ln.Accept()
		if err != nil {
			bs.mu.Lock()
			closed := bs.closed
			bs.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !bs.track(conn) {
			conn.Close()
			return nil
		}
		go bs.serveConn(conn)
	}
}

// Close stops the raw listener, closes every binwire connection, and waits
// for each connection's goroutine, which first serves the burst it holds —
// so when Close returns no binwire request holds an admission slot. Call it
// after the front end's Drain so already-admitted requests got their
// replies first. Idempotent; a later upgrade is refused.
func (bs *BinaryServer) Close() error {
	bs.mu.Lock()
	bs.closed = true
	if bs.ln != nil {
		bs.ln.Close()
	}
	for c := range bs.conns {
		c.Close()
	}
	bs.mu.Unlock()
	bs.wg.Wait()
	return nil
}

// track registers a live connection and its goroutine-to-be; it reports
// false when the server is already closed (the caller drops the connection).
func (bs *BinaryServer) track(c net.Conn) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.closed {
		return false
	}
	bs.conns[c] = struct{}{}
	bs.wg.Add(1)
	return true
}

// upgrade serves GET /v1/binwire, the way onto binwire through the HTTP
// port: a request carrying "Connection: Upgrade" and "Upgrade:
// alert-binwire" is answered 101 Switching Protocols, and the hijacked
// connection is then served like a raw listener's, on a goroutine of its
// own: on the handler's, net/http would recover a panic in the binwire loop
// and leave the connection hung instead of failing. Without those headers
// the answer is 426. A client must wait
// for the 101 before it sends a frame: bytes the server already read behind
// the request close the connection unanswered. Like the control plane the
// upgrade is ungated — admission applies to each frame, so an upgrade
// during Drain succeeds and its frames get 503 error frames.
func (bs *BinaryServer) upgrade(w http.ResponseWriter, r *http.Request) {
	if !hasToken(r.Header.Get("Connection"), "upgrade") || !hasToken(r.Header.Get("Upgrade"), BinwireProtocol) {
		bs.front.net.RecordBadInput()
		w.Header().Set("Upgrade", BinwireProtocol)
		bs.front.writeError(w, http.StatusUpgradeRequired, "binwire needs Connection: Upgrade and Upgrade: "+BinwireProtocol)
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		bs.front.writeError(w, http.StatusInternalServerError, "cannot take over the connection: "+err.Error())
		return
	}
	if rw.Reader.Buffered() > 0 || !bs.track(conn) {
		conn.Close()
		return
	}
	// A failed write leaves a dead connection, which serveConn's first read
	// reports.
	io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+BinwireProtocol+"\r\n\r\n")
	go bs.serveConn(conn)
}

// hasToken reports whether a comma-separated header value lists token,
// compared case-insensitively.
func hasToken(value, token string) bool {
	for _, t := range strings.Split(value, ",") {
		if strings.EqualFold(strings.TrimSpace(t), token) {
			return true
		}
	}
	return false
}

// binConn is the server side of one connection. Its goroutine owns all of
// it, so nothing here is locked.
type binConn struct {
	srv  *BinaryServer
	conn net.Conn

	// The burst being assembled. pending is every decide and observe
	// decoded and checked since the last admission, in arrival order, and
	// deadlines[i] is pending[i]'s admission deadline (0 for an observe).
	// admit moves them into held — the pipeline's view — and engine — the
	// engine's. decides counts the held decides.
	pending   []pendingOp
	deadlines []float64
	held      []heldOp
	engine    *alert.ServerBurst
	decides   int
	// start is when the burst's first decide or observe was decoded (zero
	// while nothing is pending or held); admitted is an instant no held op
	// was admitted before — start, unless one queued at the gate or a run
	// settled since. run turns them into sojourn and service time.
	start, admitted time.Time

	// wbuf is every frame encoded since the last flush; frames counts them.
	wbuf   []byte
	frames int
}

// pendingOp is one decoded decide or observe waiting for the burst's
// admission.
type pendingOp struct {
	id      uint64
	stream  int
	observe bool
	spec    alert.Spec
	fb      alert.Feedback
}

// heldOp is one admitted decide or observe waiting for its burst to run; the
// request itself is in the engine burst.
type heldOp struct {
	id  uint64
	res int // a decide's index in the engine burst, -1 for an observe
}

func (bs *BinaryServer) serveConn(conn net.Conn) {
	bs.bin.RecordConnOpen()
	c := &binConn{srv: bs, conn: conn, engine: bs.front.alert.NewBurst()}
	defer func() {
		// Whatever ends the connection, what it decoded is served.
		c.serve()
		bs.mu.Lock()
		delete(bs.conns, conn)
		bs.mu.Unlock()
		conn.Close()
		bs.bin.RecordConnClose()
		bs.wg.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		// Response bursts are small; waiting for a full segment would
		// serialize the pipeline on the delayed-ACK timer.
		tc.SetNoDelay(true)
	}
	rd := binwire.NewReader(conn)
	for {
		if !rd.Buffered() {
			// The next read can block, so the burst ends here.
			c.serve()
			if !c.flush() {
				return
			}
		}
		f, err := rd.Next()
		if err != nil {
			// EOF between frames is a clean hangup; everything else —
			// truncation, oversized or malformed framing — also just
			// drops the connection: framing errors leave no way to know
			// where the next frame starts.
			return
		}
		bs.bin.RecordFrameIn()
		if f.Version != binwire.Version {
			c.serve()
			c.reject(f.ID, badInput(bs.tc(), "unsupported binwire version (server speaks 1)"))
			c.flush()
			return
		}
		c.serveFrame(f)
	}
}

// tc is the counter set the op core moves for binwire requests.
func (bs *BinaryServer) tc() *metrics.TransportCounters { return &bs.bin.TransportCounters }

// serveFrame is the binwire codec over the op core: decode the frame body,
// then queue a decide or observe for the burst's admission. A reject — an
// unknown or retired frame type included — is encoded at once.
func (c *binConn) serveFrame(f binwire.Frame) {
	front, tc := c.srv.front, c.srv.tc()
	var rej reject
	switch f.Type {
	case binwire.MsgDecide:
		stream, spec, err := binwire.DecodeDecide(f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		rej = c.pend(pendingOp{id: f.ID, stream: stream, spec: spec}, spec.Deadline)
	case binwire.MsgObserve:
		stream, fb, err := binwire.DecodeObserve(f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		if rej = front.checkFeedback(tc, fb); rej.refused() {
			break
		}
		rej = c.pend(pendingOp{id: f.ID, stream: stream, observe: true, fb: fb}, 0)
	default:
		rej = badInput(tc, "unexpected frame type")
	}
	if rej.refused() {
		c.reject(f.ID, rej)
	}
}

// pend queues a decoded, checked decide or observe for the burst's
// admission after its restoring hold. The first one of a burst reads the
// clock: the burst's start.
func (c *binConn) pend(op pendingOp, deadline float64) reject {
	one := [1]slot{{op.stream, deadline}}
	if _, rej := c.srv.front.hold(c.srv.tc(), one[:]); rej.refused() {
		return rej
	}
	if c.start.IsZero() {
		c.start = time.Now()
		c.admitted = c.start
	}
	c.pending = append(c.pending, op)
	c.deadlines = append(c.deadlines, deadline)
	return reject{}
}

// serve ends the burst: everything pending is admitted and everything held
// is run, so the next burst starts empty.
func (c *binConn) serve() {
	c.admit()
	c.run()
	c.start = time.Time{}
}

// admit admits the pending ops in arrival order and holds them for the
// run. On an unsaturated gate that is one pass: the whole list in one gate
// call, one drain check and one s.mu section, with no clock read — each op
// counts as admitted at the burst's start. An op the gate cannot take at
// once starts the next pass, so what a saturated gate admits runs in
// prefixes. The connection must not wait at the gate for slots its own
// un-run ops hold — nobody else would run them — so a pass that finds held
// ops and a saturated gate (the next admission would queue) runs them
// first. Another connection can still take the last slot between that check
// and the gate call, and this one then queues holding a burst; but whoever
// holds that slot is not queued and runs its own burst the same way, so
// slots keep coming back. An op that queued is the one admitted with a
// fresh clock read.
func (c *binConn) admit() {
	front, tc := c.srv.front, c.srv.tc()
	for i := 0; i < len(c.pending); {
		if len(c.held) > 0 && front.gate.Saturated() {
			c.run()
		}
		n, waited, rej := front.admit(context.Background(), tc, false, c.deadlines[i:])
		if n == 0 {
			c.reject(c.pending[i].id, rej)
			i++
			continue
		}
		if waited {
			c.admitted = time.Now()
		}
		for _, op := range c.pending[i : i+n] {
			c.push(op)
		}
		i += n
	}
	c.pending, c.deadlines = c.pending[:0], c.deadlines[:0]
}

// push puts an admitted op into the engine burst.
func (c *binConn) push(op pendingOp) {
	if !op.observe {
		c.held = append(c.held, heldOp{id: op.id, res: c.engine.Decide(op.stream, op.spec)})
		c.decides++
		return
	}
	if err := c.engine.Observe(op.stream, op.fb); err != nil {
		c.srv.front.release(1)
		c.reject(op.id, badInput(c.srv.tc(), err.Error()))
		return
	}
	c.held = append(c.held, heldOp{id: op.id, res: -1})
}

// run serves the held ops to completion: one engine crossing — a group
// task per shard, ops applied in arrival order — then the accounting half
// for all of them at once (one clock read, one release), and every reply or
// ack encoded into the output buffer. Nothing is written here; flush does
// that.
func (c *binConn) run() {
	if len(c.held) == 0 {
		return
	}
	front, tc := c.srv.front, c.srv.tc()
	if c.decides > 0 {
		front.sleepServiceDelay()
	}
	c.engine.Run()
	if c.decides > 0 {
		// Ops admitted after this run cannot have been admitted before its
		// accounting instant.
		c.admitted = front.finish(tc, metrics.OpDecide, c.decides, c.start, c.admitted)
	}
	front.release(len(c.held))
	for i := range c.held {
		h := &c.held[i]
		if h.res < 0 {
			tc.RecordOp(metrics.OpObserve)
			c.reply(binwire.AppendObserveResp(c.wbuf, h.id))
			continue
		}
		r := c.engine.Result(h.res)
		c.reply(binwire.AppendDecideResp(c.wbuf, h.id, r.Decision, r.Estimate, front.nodeID))
	}
	if c.decides > 1 {
		c.srv.bin.RecordCoalesce(c.decides)
	}
	c.held, c.decides = c.held[:0], 0
	c.engine.Reset()
}

// reply takes the output buffer back with one more frame encoded onto it.
func (c *binConn) reply(wbuf []byte) { c.wbuf, c.frames = wbuf, c.frames+1 }

// reject puts a reject on the binwire: an error frame whose code is the
// reject's status and whose retry_after_ms is its hint.
func (c *binConn) reject(id uint64, rej reject) {
	c.reply(binwire.AppendError(c.wbuf, id, uint16(rej.status), rej.retryAfterMs(), rej.msg))
}

// flush writes every frame encoded since the last flush with one Write —
// the one place frames_out is counted, before the write so a client that
// has its reply also finds it counted. False means the connection is dead.
func (c *binConn) flush() bool {
	if c.frames == 0 {
		return true
	}
	c.srv.bin.RecordFramesOut(c.frames)
	_, err := c.conn.Write(c.wbuf)
	c.wbuf, c.frames = c.wbuf[:0], 0
	return err == nil
}
