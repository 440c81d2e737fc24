// Binary wire listener: the binwire protocol served over persistent TCP.
// Like the HTTP handlers it is a codec over the op core (ops.go) — the read
// loop decodes a frame into an op call and encodes the result or the reject
// — so the gate, drain state, recovery holds and SLO accounting are the
// same code, not a copy. The one thing it adds is the decide coalescer.
//
// # Why it is fast
//
// Three things remove the HTTP path's per-request costs:
//
//  1. binwire frames replace JSON: fixed-width encode/decode into reused
//     buffers, no reflection, no header parsing, bit-exact floats.
//  2. Connections are persistent and pipelined: a client stamps each
//     request with an id and may keep many in flight; no per-request
//     connection or goroutine setup.
//  3. Decide requests from ALL connections funnel into one dispatcher
//     that swaps out everything pending at once (group commit): while a
//     flush is in the engine, new arrivals pile up and leave as a single
//     DecideBatch — the per-shard task amortization that made wire
//     batch64 ~5.5x now applies transparently to singleton requests. An
//     idle server flushes a lone request immediately (no added latency).
//
// The steady-state server path for a decide allocates nothing: frame
// decode aliases the reader's buffer, the pending queue and flush slices
// are reused, the engine's singleton path recycles its reply futures, and
// the response is encoded into the connection's reused write buffer.
//
// # Ordering and admission
//
// Every decide frame passes the op core's admission half (begin) on its
// read goroutine BEFORE joining the coalescer, and its accounting half
// (finish) in the flush that served it, so MaxInflight/MaxQueue bound both
// transports together and admission stays all-or-nothing: a coalesced
// request was already accepted, and accepted requests are always served —
// drain waits for them. Rejections are error frames whose code is the HTTP
// status and whose retry_after_ms is the HTTP body's.
//
// Frames on one connection are processed in arrival order: observes and
// stream ops run synchronously on the read goroutine, decides enter the
// dispatcher in arrival order and flushes preserve it, so a client that
// awaits each response per stream observes exactly the in-process
// semantics (byte-identical decision sequences, pinned by
// cmd/alertload's wire tests).
package netserve

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/metrics"
)

// BinaryConfig has no fields: group commit is the listener's one mode. The
// type remains only as NewBinary's parameter because bench/alertbench
// constructs netserve.BinaryConfig{} and the benchmark's files are frozen.
type BinaryConfig struct{}

// BinaryServer serves the binwire protocol over TCP on behalf of an HTTP
// front end. Build it with NewBinary, feed it a listener with Serve, and
// Close it after the front end has drained.
type BinaryServer struct {
	front *Server
	bin   *metrics.BinCounters

	// Coalescer state: pending decides swap wholesale under pmu; wake
	// (capacity 1) nudges the dispatcher.
	pmu     sync.Mutex
	pending []pendingDecide
	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	addr   string
	conns  map[net.Conn]struct{}
	closed bool
}

// pendingDecide is one admitted decide waiting in the coalescer.
type pendingDecide struct {
	c   *binConn
	id  uint64
	req alert.BatchRequest
	// start is when the frame was decoded, admitted when it cleared the
	// gate; finish turns them into sojourn and service time.
	start, admitted time.Time
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
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		ln:    ln,
		addr:  ln.Addr().String(),
		conns: make(map[net.Conn]struct{}),
	}
	front.mu.Lock()
	front.binary = bs
	front.mu.Unlock()
	go bs.dispatch()
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
		go bs.serveConn(conn)
	}
}

// Close stops accepting, closes every connection, and stops the
// dispatcher after a final flush (releasing any admission tokens still
// held by pending decides). Call it after the front end's Drain so
// already-admitted requests got their replies first. Idempotent.
func (bs *BinaryServer) Close() error {
	bs.mu.Lock()
	if bs.closed {
		bs.mu.Unlock()
		<-bs.done
		return nil
	}
	bs.closed = true
	ln := bs.ln
	conns := make([]net.Conn, 0, len(bs.conns))
	for c := range bs.conns {
		conns = append(conns, c)
	}
	bs.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	close(bs.stop)
	<-bs.done
	return nil
}

// track registers a live connection; it reports false when the server is
// already closed (the caller must drop the connection).
func (bs *BinaryServer) track(c net.Conn) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.closed {
		return false
	}
	bs.conns[c] = struct{}{}
	return true
}

func (bs *BinaryServer) untrack(c net.Conn) {
	bs.mu.Lock()
	delete(bs.conns, c)
	bs.mu.Unlock()
}

// binConn is the server side of one connection: a read loop feeding the
// dispatcher, and a mutex-serialized writer with a reused encode buffer
// (responses to one connection may come from the dispatcher and the read
// goroutine concurrently).
type binConn struct {
	srv  *BinaryServer
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte

	// fwbuf accumulates this connection's decide responses during one
	// dispatcher flush so a coalesced batch costs one write syscall per
	// connection, not one per response. Only the dispatcher touches
	// fwbuf/fdirty, so they need no lock; the final write still takes wmu
	// to serialize with the read goroutine's acks.
	fwbuf  []byte
	fdirty bool
}

func (bs *BinaryServer) serveConn(conn net.Conn) {
	if !bs.track(conn) {
		conn.Close()
		return
	}
	bs.bin.RecordConnOpen()
	defer func() {
		bs.untrack(conn)
		conn.Close()
		bs.bin.RecordConnClose()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		// Response frames are small; waiting for a full segment would
		// serialize the pipeline on the delayed-ACK timer.
		tc.SetNoDelay(true)
	}
	c := &binConn{srv: bs, conn: conn, wbuf: make([]byte, 0, 512)}
	// The buffered reader turns a pipelined burst of small frames into one
	// read syscall; binwire.Reader alone would pay two per frame.
	rd := binwire.NewReader(bufio.NewReaderSize(conn, 64<<10))
	var batchBuf []alert.BatchRequest
	for {
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
			c.sendReject(f.ID, badInput(bs.tc(), "unsupported binwire version (server speaks 1)"))
			return
		}
		batchBuf = bs.serveFrame(c, f, batchBuf[:0])
	}
}

// tc is the counter set the op core moves for requests that arrived over
// binwire.
func (bs *BinaryServer) tc() *metrics.TransportCounters { return &bs.bin.TransportCounters }

// serveFrame is the binwire codec over the op core: decode the frame body,
// call the op with the binwire counters, encode its result or its reject.
// Everything but a decide runs synchronously on the read goroutine, so
// frames on one connection are served in arrival order. It returns the
// batch decode buffer for reuse.
func (bs *BinaryServer) serveFrame(c *binConn, f binwire.Frame, batchBuf []alert.BatchRequest) []alert.BatchRequest {
	front, tc, ctx := bs.front, bs.tc(), context.Background()
	var rej reject
	switch f.Type {
	case binwire.MsgDecide:
		start := time.Now()
		stream, spec, err := binwire.DecodeDecide(f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		// The response is written by the dispatcher.
		rej = bs.enqueue(c, f.ID, start, stream, spec)
	case binwire.MsgObserve:
		stream, fb, err := binwire.DecodeObserve(f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		if rej = front.observe(ctx, tc, stream, fb); !rej.refused() {
			c.send(func(b []byte) []byte { return binwire.AppendObserveResp(b, f.ID) })
		}
	case binwire.MsgBatch:
		start := time.Now()
		var err error
		if batchBuf, err = binwire.DecodeBatch(f.Body, batchBuf); err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		var results []alert.BatchResult
		if results, rej = front.decideBatch(ctx, tc, start, batchBuf); !rej.refused() {
			c.send(func(b []byte) []byte { return binwire.AppendBatchResp(b, f.ID, results) })
		}
	case binwire.MsgExport, binwire.MsgCheckpoint:
		stream, err := binwire.DecodeStreamReq(f.Type, f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		op := metrics.OpExport
		if f.Type == binwire.MsgCheckpoint {
			op = metrics.OpCheckpoint
		}
		var blob []byte
		if blob, _, rej = front.snapshot(ctx, tc, op, stream); !rej.refused() {
			c.send(func(b []byte) []byte { return binwire.AppendSnapshot(b, binwire.MsgSnapshotResp, f.ID, stream, blob) })
		}
	case binwire.MsgEvict:
		stream, err := binwire.DecodeStreamReq(f.Type, f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		if rej = front.evict(ctx, tc, stream); !rej.refused() {
			c.send(func(b []byte) []byte { return binwire.AppendStreamReq(b, binwire.MsgEvictResp, f.ID, stream) })
		}
	case binwire.MsgImport:
		stream, blob, err := binwire.DecodeSnapshot(f.Type, f.Body)
		if err != nil {
			rej = badInput(tc, err.Error())
			break
		}
		if rej = front.importStream(ctx, tc, stream, blob); !rej.refused() {
			c.send(func(b []byte) []byte { return binwire.AppendStreamReq(b, binwire.MsgImportResp, f.ID, stream) })
		}
	default:
		rej = badInput(tc, "unexpected frame type")
	}
	if rej.refused() {
		c.sendReject(f.ID, rej)
	}
	return batchBuf
}

// enqueue runs a decide's admission half and hands it to the coalescer.
func (bs *BinaryServer) enqueue(c *binConn, id uint64, start time.Time, stream int, spec alert.Spec) reject {
	one := [1]alert.BatchRequest{{Stream: stream, Spec: spec}}
	if rej := bs.front.begin(context.Background(), bs.tc(), metrics.OpDecide, one[:]); rej.refused() {
		return rej
	}
	p := pendingDecide{c: c, id: id, req: one[0], start: start, admitted: time.Now()}
	bs.pmu.Lock()
	bs.pending = append(bs.pending, p)
	bs.pmu.Unlock()
	select {
	case bs.wake <- struct{}{}:
	default:
	}
	return reject{}
}

// dispatch is the coalescing flush loop: on each wake it swaps out
// everything pending and serves it as one unit (group commit: batches form
// from what arrives while the previous flush is in the engine). It exits
// after Close, flushing one last time so no admitted request is left
// holding a token.
func (bs *BinaryServer) dispatch() {
	defer close(bs.done)
	var batch []pendingDecide
	var reqs []alert.BatchRequest
	var dirty []*binConn
	for stopping := false; !stopping; {
		select {
		case <-bs.wake:
		case <-bs.stop:
			stopping = true
		}
		// Exchange the shared pending queue for the recycled one.
		bs.pmu.Lock()
		batch, bs.pending = bs.pending, batch[:0]
		bs.pmu.Unlock()
		reqs, dirty = bs.flush(batch, reqs[:0], dirty[:0])
	}
}

// flush serves one swapped-out set of decides. A singleton takes the
// engine's pooled single-decide path (zero allocations); anything larger
// becomes one DecideBatch, amortizing per-shard task dispatch across
// every connection that contributed. Each decide is accounted (finish)
// and its response encoded into its connection's flush buffer; the buffers
// are then written, one syscall per contributing connection rather than
// one per decision. reqs and dirty are the dispatcher's scratch slices,
// returned for reuse.
func (bs *BinaryServer) flush(batch []pendingDecide, reqs []alert.BatchRequest, dirty []*binConn) ([]alert.BatchRequest, []*binConn) {
	if len(batch) == 0 {
		return reqs, dirty
	}
	front, tc := bs.front, bs.tc()
	for i := range batch {
		reqs = append(reqs, batch[i].req)
	}
	front.sleepServiceDelay()
	var results []alert.BatchResult
	var one [1]alert.BatchResult
	if len(reqs) == 1 {
		one[0].Decision, one[0].Estimate = front.alert.Decide(reqs[0].Stream, reqs[0].Spec)
		results = one[:]
	} else {
		results = front.alert.DecideBatch(reqs)
		bs.bin.RecordCoalesce(len(batch))
	}
	for i := range batch {
		p := &batch[i]
		front.finish(tc, metrics.OpDecide, reqs[i:i+1], p.start, p.admitted)
		if !p.c.fdirty {
			p.c.fdirty = true
			dirty = append(dirty, p.c)
		}
		p.c.fwbuf = binwire.AppendDecideResp(p.c.fwbuf, p.id, results[i].Decision, results[i].Estimate, front.nodeID)
		bs.bin.RecordFrameOut()
	}
	for _, c := range dirty {
		c.wmu.Lock()
		c.conn.Write(c.fwbuf) // on error the read loop tears down
		c.wmu.Unlock()
		c.fwbuf = c.fwbuf[:0]
		c.fdirty = false
	}
	return reqs, dirty
}

// send encodes one frame into the connection's reused buffer and writes
// it, under the write mutex. Write errors are dropped: the read loop
// observes the dead connection and tears everything down.
func (c *binConn) send(appendFrame func([]byte) []byte) {
	c.wmu.Lock()
	c.wbuf = appendFrame(c.wbuf[:0])
	_, err := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if err == nil {
		c.srv.bin.RecordFrameOut()
	}
}

// sendReject puts a reject on the binwire: an error frame whose code is
// the reject's status and whose retry_after_ms is its hint.
func (c *binConn) sendReject(id uint64, rej reject) {
	c.send(func(b []byte) []byte {
		return binwire.AppendError(b, id, uint16(rej.status), rej.retryAfterMs(), rej.msg)
	})
}
