// Binary wire listener: the binwire protocol served over persistent TCP.
// It carries the per-input loop only — decide, observe, decide-batch — and
// leaves the stream ops (evict, export, checkpoint, import) to HTTP. Like
// the HTTP handlers it is a codec over the op core (ops.go) — decode a
// frame into an op, encode the result or the reject — so the gate, drain
// state, recovery holds and SLO accounting are the same code, not a copy.
// What it adds is that a connection's goroutine serves its input in bursts.
//
// # Why it is fast
//
//  1. binwire frames replace JSON: fixed-width encode/decode into reused
//     buffers, no reflection, no header parsing, bit-exact floats.
//  2. Connections are persistent and pipelined: a client stamps each
//     request with an id and may keep many in flight.
//  3. Each wake-up runs a burst to completion (per-connection group commit):
//     one read brings in every frame the client has pipelined; every
//     complete frame is decoded and admitted; the burst's decides AND
//     observes cross into the engine as one group task per shard; every
//     reply, ack and reject is encoded into one buffer and leaves in one
//     Write. 64 pipelined requests cost one read, one task per shard and one
//     write, not 64 of each — and a lone request is a burst of one, served
//     at once. No goroutine is shared between connections, so a client that
//     stops reading blocks only its own connection's Write, holding no gate
//     slot.
//
// The steady-state path allocates nothing, batch frames included: frame
// decode aliases the reader's buffer, the held ops, the engine burst and the
// output buffer are the connection's own, grown on demand and reused, and
// every reply is encoded straight out of the engine burst.
//
// # Ordering and admission
//
// Every decide and observe passes the op core's admission half (begin) as
// it is decoded and its accounting half (finish, or release) after the
// burst ran and BEFORE anything is written, so MaxInflight/MaxQueue bound
// both transports together, an accepted request is always served — drain
// waits for it — and a slow reader holds no slot. A connection never waits
// at the gate on slots its own un-run burst holds: a saturated gate runs
// what is held first, so a client may pipeline more than the gate admits.
// Rejections are error frames whose code is the HTTP status and whose
// retry_after_ms is the HTTP body's.
//
// Frames on one connection are served in arrival order: the burst applies a
// stream's observes and decides in the order they arrived, an observe is
// acked after it was APPLIED, and a batch frame first runs what is held. A
// pipelining client therefore sees exactly the in-process semantics without
// awaiting anything (byte-identical decision sequences, pinned by
// TestBinaryBurstOrder and cmd/alertload's wire tests).
package netserve

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/metrics"
)

// BinaryConfig has no fields: burst serving is the listener's one mode. The
// type remains only as NewBinary's parameter because bench/alertbench
// constructs netserve.BinaryConfig{} and the benchmark's files are frozen.
type BinaryConfig struct{}

// BinaryServer serves the binwire protocol over TCP on behalf of an HTTP
// front end. Build it with NewBinary, feed it a listener with Serve, and
// Close it after the front end has drained.
type BinaryServer struct {
	front *Server
	bin   *metrics.BinCounters

	mu     sync.Mutex
	ln     net.Listener
	addr   string
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // live serveConn goroutines; Add under mu
}

// NewBinary attaches a binary listener to the front end over an
// already-bound listener; call Serve to start accepting. Taking the bound
// listener here (rather than in Serve) makes the advertised address part
// of the front end's state before HTTP can answer a single stats read, so
// a PreferBinary client can never probe a binary-serving node and
// conclude it speaks only JSON.
func NewBinary(front *Server, ln net.Listener, _ BinaryConfig) *BinaryServer {
	bs := &BinaryServer{
		front: front,
		bin:   metrics.NewBinCounters(),
		ln:    ln,
		addr:  ln.Addr().String(),
		conns: make(map[net.Conn]struct{}),
	}
	front.mu.Lock()
	front.binary = bs
	front.mu.Unlock()
	return bs
}

// Addr returns the bound listen address.
func (bs *BinaryServer) Addr() string { return bs.addr }

// BinStats snapshots the listener's counters.
func (bs *BinaryServer) BinStats() metrics.BinSnapshot { return bs.bin.Snapshot() }

// Serve accepts connections until the listener fails or Close is called,
// returning nil on a clean Close.
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

// Close stops accepting, closes every connection, and waits for each
// connection's goroutine, which first serves the burst it holds — so when
// Close returns no binwire request holds an admission slot. Call it after
// the front end's Drain so already-admitted requests got their replies
// first. Idempotent.
func (bs *BinaryServer) Close() error {
	bs.mu.Lock()
	bs.closed = true
	bs.ln.Close()
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

func (bs *BinaryServer) untrack(c net.Conn) {
	bs.mu.Lock()
	delete(bs.conns, c)
	bs.mu.Unlock()
}

// binConn is the server side of one connection. Its goroutine owns all of
// it, so nothing here is locked.
type binConn struct {
	srv  *BinaryServer
	conn net.Conn

	// The burst being assembled: every decide and observe admitted since
	// the last run, in arrival order, as the pipeline sees them (held) and as
	// the engine will (engine.burst). decides counts the held decides. A
	// batch frame runs alone (what is held runs first), so it borrows the
	// engine burst and is the only user of engine.slots.
	held    []heldOp
	engine  batch
	decides int

	// wbuf is every frame encoded since the last flush; frames counts them.
	wbuf   []byte
	frames int

	batchBuf []alert.BatchRequest // batch frames decode into it
}

// heldOp is one admitted decide or observe waiting for its burst to run; the
// request itself is in the engine burst.
type heldOp struct {
	id uint64
	// key is the op as begin and finish read it (an array, so slicing it
	// allocates nothing).
	key [1]slot
	res int // a decide's index in the engine burst, -1 for an observe
	// start is when a decide's frame was decoded, admitted when the op
	// cleared the gate; finish turns them into sojourn and service time.
	start, admitted time.Time
}

func (bs *BinaryServer) serveConn(conn net.Conn) {
	bs.bin.RecordConnOpen()
	c := &binConn{srv: bs, conn: conn, engine: batch{burst: bs.front.alert.NewBurst()}}
	defer func() {
		// Whatever ends the connection, what it was admitted for is served.
		c.run()
		bs.untrack(conn)
		conn.Close()
		bs.bin.RecordConnClose()
		bs.wg.Done()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		// Response bursts are small; waiting for a full segment would
		// serialize the pipeline on the delayed-ACK timer.
		tc.SetNoDelay(true)
	}
	// The buffered reader turns a pipelined burst of small frames into one
	// read syscall; binwire.Reader alone would pay two per frame.
	br := bufio.NewReaderSize(conn, 64<<10)
	rd := binwire.NewReader(br)
	for {
		if !frameBuffered(br) {
			// The next read can block, so the burst ends here.
			c.run()
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
			c.run()
			c.reject(f.ID, badInput(bs.tc(), "unsupported binwire version (server speaks 1)"))
			c.flush()
			return
		}
		c.serveFrame(f)
	}
}

// frameBuffered reports whether br already holds a complete frame, so that
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint32(br.Buffered()-4) >= binary.LittleEndian.Uint32(hdr)
}

// tc is the counter set the op core moves for binwire requests.
func (bs *BinaryServer) tc() *metrics.TransportCounters { return &bs.bin.TransportCounters }

// serveFrame is the binwire codec over the op core: decode the frame body,
// then hold a decide or observe for the burst, or serve a batch whole after
// running what is held, so arrival order survives. A reject — an unknown or
// retired frame type included — is encoded at once.
func (c *binConn) serveFrame(f binwire.Frame) {
	front, tc := c.srv.front, c.srv.tc()
	var rej reject
	switch f.Type {
	case binwire.MsgDecide:
		h := heldOp{id: f.ID, start: time.Now()}
		stream, spec, err := binwire.DecodeDecide(f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		h.key[0] = slot{stream, spec.Deadline}
		if rej = c.admit(metrics.OpDecide, &h); !rej.refused() {
			h.res = c.engine.burst.Decide(stream, spec)
			c.held = append(c.held, h)
			c.decides++
		}
	case binwire.MsgObserve:
		h := heldOp{id: f.ID, res: -1}
		stream, fb, err := binwire.DecodeObserve(f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		if rej = front.checkFeedback(tc, fb); rej.refused() {
			break
		}
		h.key[0].stream = stream
		if rej = c.admit(metrics.OpObserve, &h); !rej.refused() {
			if err := c.engine.burst.Observe(stream, fb); err != nil {
				front.release()
				rej = badInput(tc, err.Error())
				break
			}
			c.held = append(c.held, h)
		}
	case binwire.MsgBatch:
		c.run()
		start := time.Now()
		var err error
		if c.batchBuf, err = binwire.DecodeBatch(f.Body, c.batchBuf[:0]); err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		for _, r := range c.batchBuf {
			c.engine.add(r.Stream, r.Spec)
		}
		if rej = front.decideBatch(context.Background(), tc, start, &c.engine); !rej.refused() {
			c.reply(binwire.AppendBatchResp(c.wbuf, f.ID, len(c.batchBuf), c.engine.burst.Result))
		}
		c.engine.reset()
	default:
		rej = badInput(tc, "unexpected frame type")
	}
	if rej.refused() {
		c.reject(f.ID, rej)
	}
}

// admit runs the admission half of a decide or observe. The connection must
// not wait at the gate for slots its own un-run burst holds — nobody else
// would run it — so when the gate is saturated (the next admission would
// queue) the held burst is served first. Another connection can still take
// the last slot between this check and begin, and this one then queues
// holding a burst; but whoever holds that slot is not queued and runs its
// own burst the same way, so slots keep coming back.
func (c *binConn) admit(op metrics.Op, h *heldOp) reject {
	front := c.srv.front
	if len(c.held) > 0 && front.gate.Saturated() {
		c.run()
	}
	rej := front.begin(context.Background(), c.srv.tc(), op, h.key[:])
	h.admitted = time.Now()
	return rej
}

// run serves the held burst to completion: one engine crossing — a group
// task per shard, ops applied in arrival order — then, per op, the
// accounting half (which returns the slot) and the reply or ack encoded
// into the output buffer. Nothing is written here; flush does that.
func (c *binConn) run() {
	if len(c.held) == 0 {
		return
	}
	front, tc := c.srv.front, c.srv.tc()
	if c.decides > 0 {
		front.sleepServiceDelay()
	}
	c.engine.burst.Run()
	for i := range c.held {
		h := &c.held[i]
		if h.res < 0 {
			tc.RecordOp(metrics.OpObserve)
			front.release()
			c.reply(binwire.AppendObserveResp(c.wbuf, h.id))
			continue
		}
		front.finish(tc, metrics.OpDecide, h.key[:], h.start, h.admitted)
		r := c.engine.burst.Result(h.res)
		c.reply(binwire.AppendDecideResp(c.wbuf, h.id, r.Decision, r.Estimate, front.nodeID))
	}
	if c.decides > 1 {
		c.srv.bin.RecordCoalesce(c.decides)
	}
	c.held, c.decides = c.held[:0], 0
	c.engine.reset()
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
