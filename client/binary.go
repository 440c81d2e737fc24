package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
)

// binaryTransport is the binwire codec — decide, observe and batch, the
// per-input loop — over a small pool of persistent TCP connections.
// Requests are pipelined: each is stamped with a connection-unique id and
// its caller parks on a channel until the reader goroutine routes the
// matching response frame back, so any number of goroutines share a
// connection without head-of-line blocking in the client. Every op is one
// call: encode a request frame, round-trip it, check the reply frame's
// type.
type binaryTransport struct {
	addr string
	next atomic.Uint32

	mu     sync.Mutex
	conns  []*binConn
	closed bool
}

// binPoolSize is the persistent connections per transport. Pipelining
// makes one connection enough to saturate a small host — and fewer
// connections mean better write coalescing and fewer reader wakeups — so
// the pool grows with cores only to keep reader goroutines from becoming
// the bottleneck on big machines.
var binPoolSize = func() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return n
}()

// newBinaryTransport returns a transport for the given host:port. Dialing
// is lazy — a server that is down fails per request, like HTTP.
func newBinaryTransport(addr string) *binaryTransport {
	return &binaryTransport{addr: addr, conns: make([]*binConn, binPoolSize)}
}

// Close tears down every connection; in-flight requests fail. The
// transport must not be used afterwards.
func (t *binaryTransport) Close() {
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = make([]*binConn, binPoolSize)
	t.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.fail(errors.New("client: binary transport closed"))
		}
	}
}

// conn returns a live pooled connection, dialing a replacement for a dead
// slot. Slots rotate round-robin so concurrent streams spread across the
// pool.
func (t *binaryTransport) conn() (*binConn, error) {
	slot := int(t.next.Add(1)) % binPoolSize
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("client: binary transport closed")
	}
	cc := t.conns[slot]
	if cc != nil && !cc.broken() {
		t.mu.Unlock()
		return cc, nil
	}
	t.mu.Unlock()
	// Dial outside the lock; only the winner is installed.
	nc, err := net.Dial("tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial binary %s: %w", t.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	fresh := &binConn{
		conn:    nc,
		pending: make(map[uint64]chan binReply),
		wwake:   make(chan struct{}, 1),
		wstop:   make(chan struct{}),
	}
	go fresh.readLoop()
	go fresh.writeLoop()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		fresh.fail(errors.New("client: binary transport closed"))
		return nil, errors.New("client: binary transport closed")
	}
	if cur := t.conns[slot]; cur != nil && !cur.broken() {
		t.mu.Unlock()
		fresh.fail(errors.New("client: duplicate dial discarded"))
		return cur, nil
	}
	t.conns[slot] = fresh
	t.mu.Unlock()
	return fresh, nil
}

// binConn is one pipelined connection: requesters append frames to a
// shared queue and nudge a dedicated writer goroutine, which swaps the
// whole queue out and writes it in one syscall (group commit — every
// queued request rides the same write), while a reader goroutine routes
// response frames to waiters by request id.
type binConn struct {
	conn   net.Conn
	nextID atomic.Uint64

	wmu   sync.Mutex
	wbuf  []byte        // frames queued for the writer
	wwake chan struct{} // capacity 1: nudges the writer

	mu      sync.Mutex
	pending map[uint64]chan binReply
	dead    error
	wstop   chan struct{} // closed by fail: stops the writer
}

// replyPool recycles roundTrip's buffered-1 reply channels, the hot path's
// one remaining allocation pair (a channel of a pointerful element is two).
// Only a waiter that RECEIVED its reply may put its channel back: that
// channel is provably empty and unreferenced by the read loop. A waiter that
// gave up (context) or was failed (closed channel) drops its channel, because
// a late reply may still be sent on it.
var replyPool = sync.Pool{New: func() any { return make(chan binReply, 1) }}

// binReply hands a response frame to its waiter. buf is the pooled buffer
// Body aliases; the waiter returns it with binwire.PutBuf after decoding.
type binReply struct {
	frame binwire.Frame
	buf   *[]byte
}

func (cc *binConn) broken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead != nil
}

// fail kills the connection: every current and future waiter gets err.
func (cc *binConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead != nil {
		cc.mu.Unlock()
		return
	}
	cc.dead = err
	pending := cc.pending
	cc.pending = nil
	close(cc.wstop)
	cc.mu.Unlock()
	cc.conn.Close()
	for _, ch := range pending {
		close(ch) // a closed channel signals "connection died, see dead"
	}
}

func (cc *binConn) readLoop() {
	// Buffered: a burst of pipelined responses drains in one read syscall.
	rd := binwire.NewReader(bufio.NewReaderSize(cc.conn, 64<<10))
	for {
		f, err := rd.Next()
		if err != nil {
			cc.fail(fmt.Errorf("client: binary connection lost: %w", err))
			return
		}
		if f.Version != binwire.Version {
			cc.fail(fmt.Errorf("client: server speaks binwire version %d, want %d", f.Version, binwire.Version))
			return
		}
		// The frame body aliases the reader's buffer; copy it into a
		// pooled buffer that travels to the waiter.
		bp := binwire.GetBuf()
		*bp = append((*bp)[:0], f.Body...)
		f.Body = *bp
		cc.mu.Lock()
		ch, ok := cc.pending[f.ID]
		if ok {
			delete(cc.pending, f.ID)
		}
		cc.mu.Unlock()
		if !ok {
			// The waiter gave up (context cancellation); drop the late
			// response.
			binwire.PutBuf(bp)
			continue
		}
		ch <- binReply{frame: f, buf: bp}
	}
}

// writeLoop drains the frame queue: on each nudge it swaps the queue out
// wholesale and writes it with one syscall, so every request queued while
// a write was in flight (or while this goroutine waited for the
// scheduler) shares that syscall instead of paying its own. On write
// failure it kills the connection; waiters learn through their closed
// channels.
func (cc *binConn) writeLoop() {
	var flush []byte
	for {
		select {
		case <-cc.wwake:
		case <-cc.wstop:
			return
		}
		// The nudge readies this goroutine into the scheduler's runnext
		// slot — running now would write the nudger's single frame alone.
		// Yielding once lets every already-runnable requester append its
		// frame first, so the swap below drains a full batch per syscall.
		runtime.Gosched()
		cc.wmu.Lock()
		cc.wbuf, flush = flush[:0], cc.wbuf
		cc.wmu.Unlock()
		if len(flush) == 0 {
			continue
		}
		if _, err := cc.conn.Write(flush); err != nil {
			cc.fail(fmt.Errorf("client: binary write: %w", err))
			return
		}
	}
}

// send queues one encoded frame and nudges the writer.
func (cc *binConn) send(enc func(dst []byte, id uint64) []byte, id uint64) {
	cc.wmu.Lock()
	cc.wbuf = enc(cc.wbuf, id)
	cc.wmu.Unlock()
	select {
	case cc.wwake <- struct{}{}:
	default:
	}
}

// roundTrip sends one request frame (encoded by enc, stamped with a fresh
// id) and parks until the matching response arrives, the context ends, or
// the connection dies.
func (cc *binConn) roundTrip(ctx context.Context, enc func(dst []byte, id uint64) []byte) (binReply, error) {
	id := cc.nextID.Add(1)
	ch := replyPool.Get().(chan binReply)
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		return binReply{}, err
	}
	cc.pending[id] = ch
	cc.mu.Unlock()

	cc.send(enc, id)

	select {
	case r, ok := <-ch:
		if !ok {
			cc.mu.Lock()
			err := cc.dead
			cc.mu.Unlock()
			return binReply{}, err
		}
		replyPool.Put(ch)
		return r, nil
	case <-ctx.Done():
		cc.forget(id)
		return binReply{}, ctx.Err()
	}
}

// forget abandons a pending id (the response, if it ever comes, is
// dropped by the read loop).
func (cc *binConn) forget(id uint64) {
	cc.mu.Lock()
	if cc.pending != nil {
		delete(cc.pending, id)
	}
	cc.mu.Unlock()
}

// binError maps an error frame to the error the HTTP codec produces for
// the equivalent status.
func binError(body []byte) error {
	code, ms, msg, err := binwire.DecodeError(body)
	if err != nil {
		return fmt.Errorf("client: malformed error frame: %w", err)
	}
	return statusError(int(code), msg, ms, "")
}

// call sends one request frame (encoded by enc) and returns the reply
// frame, which must be of type want: an error frame becomes its binError,
// any other type is a protocol violation. On success the caller returns
// r.buf with binwire.PutBuf once it has decoded r.frame.Body.
func (t *binaryTransport) call(ctx context.Context, want binwire.MsgType, enc func(dst []byte, id uint64) []byte) (binReply, error) {
	cc, err := t.conn()
	if err != nil {
		return binReply{}, err
	}
	r, err := cc.roundTrip(ctx, enc)
	if err != nil {
		return binReply{}, err
	}
	switch r.frame.Type {
	case want:
		return r, nil
	case binwire.MsgError:
		err = binError(r.frame.Body)
	default:
		err = fmt.Errorf("client: unexpected response frame type %d", byte(r.frame.Type))
	}
	binwire.PutBuf(r.buf)
	return binReply{}, err
}

func (t *binaryTransport) decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error) {
	r, err := t.call(ctx, binwire.MsgDecideResp, func(dst []byte, id uint64) []byte {
		return binwire.AppendDecide(dst, id, stream, spec)
	})
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", err
	}
	defer binwire.PutBuf(r.buf)
	d, est, node, err := binwire.DecodeDecideResp(r.frame.Body)
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", fmt.Errorf("client: %w", err)
	}
	return d, est, node, nil
}

func (t *binaryTransport) observe(ctx context.Context, stream int, fb alert.Feedback) error {
	r, err := t.call(ctx, binwire.MsgObserveResp, func(dst []byte, id uint64) []byte {
		return binwire.AppendObserve(dst, id, stream, fb)
	})
	if err == nil {
		binwire.PutBuf(r.buf)
	}
	return err
}

func (t *binaryTransport) batch(ctx context.Context, reqs []alert.BatchRequest) ([]alert.BatchResult, error) {
	r, err := t.call(ctx, binwire.MsgBatchResp, func(dst []byte, id uint64) []byte {
		return binwire.AppendBatch(dst, id, reqs)
	})
	if err != nil {
		return nil, err
	}
	defer binwire.PutBuf(r.buf)
	res, err := binwire.DecodeBatchResp(r.frame.Body, make([]alert.BatchResult, 0, len(reqs)))
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return res, nil
}
