package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/binwire"
	"github.com/alert-project/alert/internal/netserve"
)

// binaryTransport is the binwire codec — decide and observe, the per-input
// loop — over a small pool of persistent TCP connections, each upgraded
// from HTTP on the server's port (GET /v1/binwire) unless it dials a raw
// binwire listener.
// Requests are pipelined: each is stamped with a connection-unique id and
// its caller parks on its waiter until the reader goroutine routes the
// matching response frame back, so any number of goroutines share a
// connection without head-of-line blocking in the client. Every op is one
// call: encode a request frame, round-trip it, check the reply frame's
// type.
//
// The steady-state call — live connection, free waiter slot,
// context.Background() — takes no mutex but the writer queue's wmu, touches
// no map and runs no select: the stream id picks the pool slot, an atomic
// load finds its connection, one CAS publishes the waiter and a plain
// channel receive parks the caller. What callers on different cores still
// share per connection is the id counter, the writer queue and the reader's
// wake-ups; everything under t.mu or binConn.mu is the slow path (dialing,
// Close, a failed connection, table overflow, cancellation).
type binaryTransport struct {
	addr    string
	upgrade bool                      // false: addr is a raw binwire listener (Options.BinaryAddr)
	conns   []atomic.Pointer[binConn] // conns[slot] is the slot's connection, dead or alive

	mu     sync.Mutex
	dials  []*binDial // dials[slot] is the dial in flight for that slot, if any
	closed bool
}

// binDial is one in-flight dial of a pool slot. Callers that find the slot
// empty while it runs wait on done instead of dialing their own connection;
// err is the dial's failure, set before done is closed, and abandoned
// that the dialing caller's context ended first — its error then says
// nothing about the server, so the waiters dial again.
type binDial struct {
	done      chan struct{}
	err       error
	abandoned bool
}

// errTransportClosed fails every call on a closed transport.
var errTransportClosed = errors.New("client: binary transport closed")

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

// newBinaryTransport returns a transport for the given host:port, upgrading
// each connection from HTTP when upgrade is set. Dialing is lazy — a server
// that is down fails per request, like HTTP.
func newBinaryTransport(addr string, upgrade bool) *binaryTransport {
	return &binaryTransport{addr: addr, upgrade: upgrade, conns: make([]atomic.Pointer[binConn], binPoolSize), dials: make([]*binDial, binPoolSize)}
}

// Close tears down every connection; in-flight requests fail. The
// transport must not be used afterwards.
func (t *binaryTransport) Close() {
	t.mu.Lock()
	t.closed = true
	for i := range t.conns {
		if cc := t.conns[i].Swap(nil); cc != nil {
			cc.fail(errTransportClosed)
		}
	}
	t.mu.Unlock()
}

// conn returns the stream's pooled connection. The stream id picks the
// slot, so one stream's requests share a connection and the pick writes
// nothing shared; a live connection is one atomic load and one flag away.
// A dead or empty slot is redialed under t.mu, with at most one dial in
// flight per slot: callers that find it dialing wait for that dial (or for
// ctx), then re-check the slot, and share its error if it failed. The dial
// runs under the dialing caller's ctx; if that ends first, the waiters
// re-check the slot instead of sharing the error.
func (t *binaryTransport) conn(ctx context.Context, stream int) (*binConn, error) {
	slot := int(uint(stream) % uint(len(t.conns)))
	if cc := t.conns[slot].Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}
	t.mu.Lock()
	for {
		if t.closed {
			t.mu.Unlock()
			return nil, errTransportClosed
		}
		if cc := t.conns[slot].Load(); cc != nil && !cc.dead.Load() {
			t.mu.Unlock()
			return cc, nil
		}
		d := t.dials[slot]
		if d == nil {
			break
		}
		t.mu.Unlock()
		select {
		case <-d.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if d.err != nil && !d.abandoned {
			return nil, d.err
		}
		t.mu.Lock()
	}
	d := &binDial{done: make(chan struct{})}
	t.dials[slot] = d
	t.mu.Unlock()

	fresh, err := t.dial(ctx)
	t.mu.Lock()
	if err == nil && t.closed {
		err = errTransportClosed
	}
	if err == nil {
		t.conns[slot].Store(fresh)
	}
	t.dials[slot] = nil
	d.err, d.abandoned = err, ctx.Err() != nil
	close(d.done)
	t.mu.Unlock()
	if err != nil {
		if fresh != nil {
			fresh.fail(err)
		}
		return nil, err
	}
	return fresh, nil
}

// dial opens one pipelined connection, upgrades it if the transport
// upgrades, and starts its reader and writer. Both the dial and the
// upgrade end when ctx does.
func (t *binaryTransport) dial(ctx context.Context) (*binConn, error) {
	nc, err := (&net.Dialer{}).DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial binary %s: %w", t.addr, err)
	}
	if t.upgrade {
		if err := upgrade(ctx, nc, t.addr); err != nil {
			nc.Close()
			return nil, fmt.Errorf("client: binwire upgrade at %s: %w", t.addr, err)
		}
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &binConn{conn: nc, wwake: make(chan struct{}, 1), wstop: make(chan struct{})}
	go cc.readLoop()
	go cc.writeLoop()
	return cc, nil
}

// upgrade switches a fresh connection from HTTP to binwire: it sends GET
// /v1/binwire with "Upgrade: alert-binwire" and requires 101 Switching
// Protocols. If ctx ends first, the connection's deadline cuts the
// exchange short and ctx's error is returned.
func upgrade(ctx context.Context, nc net.Conn, host string) (err error) {
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	defer func() {
		if !stop() {
			err = ctx.Err()
		}
	}()
	if _, err = io.WriteString(nc, "GET "+netserve.BinwirePath+" HTTP/1.1\r\nHost: "+host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+netserve.BinwireProtocol+"\r\n\r\n"); err != nil {
		return err
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return fmt.Errorf("server answered %s, not 101 Switching Protocols", resp.Status)
	}
	if br.Buffered() > 0 { // the server speaks only when asked; nothing may trail the 101
		return errors.New("server sent bytes after the 101")
	}
	return nil
}

// binSlots is the waiter table's size: 256 pointers, 2 KiB per connection.
// A connection may carry more requests in flight; the surplus waits in the
// overflow map.
const binSlots = 256

// binConn is one pipelined connection: requesters append frames to a
// shared queue and nudge a dedicated writer goroutine, which swaps the
// whole queue out and writes it in one syscall (group commit — every
// queued request rides the same write), while a reader goroutine routes
// response frames to waiters by request id.
//
// Waiters are found through a fixed table indexed by id % binSlots. A
// caller publishes its waiter with a CAS from nil; the reader, a
// cancelling caller and fail each take it out with an atomic op, so exactly
// one of them owns it next. A request whose slot is still held (more than
// binSlots in flight, or a slow straggler) registers in the mutex-guarded
// overflow map instead; the reader looks there only when the table has no
// match. fail sets dead before it sweeps the table, and a registering
// caller re-checks dead after it publishes, so a waiter is never left
// behind on a dead connection.
type binConn struct {
	conn   net.Conn
	nextID atomic.Uint64
	dead   atomic.Bool // set once by fail, before the sweep; err is set before it
	table  [binSlots]atomic.Pointer[waiter]

	wmu   sync.Mutex
	wbuf  []byte        // frames queued for the writer
	wwake chan struct{} // capacity 1: nudges the writer

	mu    sync.Mutex
	ovf   map[uint64]*waiter // waiters whose table slot was taken
	err   error              // why the connection died; read only once dead is seen
	wstop chan struct{}      // closed by fail: stops the writer
}

// waiter is one request's rendezvous with the reader: the reader copies
// the reply into body, sets typ and sends on done (capacity 1, so the
// reader never blocks); fail closes done instead. Waiters are pooled, and
// two rules keep a recycled waiter from receiving someone else's reply:
//   - only the goroutine that received a wake-up on done puts the waiter
//     back, because only then is done empty and the waiter out of every
//     table, map and goroutine;
//   - a cancelled or failed waiter is dropped, never pooled: the reader may
//     have claimed it already and still write its body and wake it.
type waiter struct {
	id   uint64
	done chan struct{}
	typ  binwire.MsgType
	body []byte
}

var waiters = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

// register publishes w under its id: its table slot if free, the overflow
// map otherwise.
func (cc *binConn) register(w *waiter) {
	if cc.table[w.id%binSlots].CompareAndSwap(nil, w) {
		return
	}
	cc.mu.Lock()
	if cc.ovf == nil {
		cc.ovf = make(map[uint64]*waiter)
	}
	cc.ovf[w.id] = w
	cc.mu.Unlock()
}

// claim takes the waiter for id out of the table or the overflow map, or
// returns nil if it is gone (cancelled, or failed).
func (cc *binConn) claim(id uint64) *waiter {
	s := &cc.table[id%binSlots]
	if w := s.Load(); w != nil && w.id == id && s.CompareAndSwap(w, nil) {
		return w
	}
	cc.mu.Lock()
	w := cc.ovf[id]
	delete(cc.ovf, id)
	cc.mu.Unlock()
	return w
}

// forget withdraws w if nobody has claimed it yet. The caller drops w
// either way: a claimant may still be about to wake it.
func (cc *binConn) forget(w *waiter) {
	if !cc.table[w.id%binSlots].CompareAndSwap(w, nil) {
		cc.mu.Lock()
		if cc.ovf[w.id] == w {
			delete(cc.ovf, w.id)
		}
		cc.mu.Unlock()
	}
}

// fail kills the connection: every current and future waiter gets err.
func (cc *binConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	cc.dead.Store(true)
	ovf := cc.ovf
	cc.ovf = nil
	close(cc.wstop)
	cc.mu.Unlock()
	cc.conn.Close()
	for i := range cc.table {
		if w := cc.table[i].Swap(nil); w != nil {
			close(w.done) // a closed done signals "connection died, see err"
		}
	}
	for _, w := range ovf {
		close(w.done)
	}
}

// readLoop routes response frames to their waiters. Its binwire.Reader
// reads into one 16 KiB buffer, so a burst of pipelined responses drains in
// one read syscall, and parses each frame where it lies.
func (cc *binConn) readLoop() {
	rd := binwire.NewReader(cc.conn)
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
		// A missing waiter gave up (context cancellation): the late
		// response is dropped. Otherwise the body, which aliases the
		// reader's buffer, is copied into the waiter's own — at most
		// binwire.MaxFrame bytes, so a pooled waiter stays small.
		if w := cc.claim(f.ID); w != nil {
			w.typ, w.body = f.Type, append(w.body[:0], f.Body...)
			w.done <- struct{}{}
		}
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
// the connection dies. A context that can never end parks on a plain
// receive; only a cancellable one pays for a select. On success the caller
// owns the returned waiter and puts it back in waiters once it has decoded
// w.body.
func (cc *binConn) roundTrip(ctx context.Context, enc func(dst []byte, id uint64) []byte) (*waiter, error) {
	w := waiters.Get().(*waiter)
	w.id = cc.nextID.Add(1)
	cc.register(w)
	if cc.dead.Load() { // fail may have swept before w was published
		cc.forget(w)
		return nil, cc.err
	}
	cc.send(enc, w.id)

	ok := false
	if done := ctx.Done(); done == nil {
		_, ok = <-w.done
	} else {
		select {
		case _, ok = <-w.done:
		case <-done:
			cc.forget(w)
			return nil, ctx.Err()
		}
	}
	if !ok {
		return nil, cc.err
	}
	return w, nil
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

// call sends one request frame (encoded by enc) for the stream and returns
// the reply's waiter, whose frame must be of type want: an error frame
// becomes its binError, any other type is a protocol violation. On success
// the caller puts the waiter back in waiters once it has decoded w.body.
func (t *binaryTransport) call(ctx context.Context, stream int, want binwire.MsgType, enc func(dst []byte, id uint64) []byte) (*waiter, error) {
	cc, err := t.conn(ctx, stream)
	if err != nil {
		return nil, err
	}
	w, err := cc.roundTrip(ctx, enc)
	if err != nil {
		return nil, err
	}
	switch w.typ {
	case want:
		return w, nil
	case binwire.MsgError:
		err = binError(w.body)
	default:
		err = fmt.Errorf("client: unexpected response frame type %d", byte(w.typ))
	}
	waiters.Put(w)
	return nil, err
}

func (t *binaryTransport) decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error) {
	w, err := t.call(ctx, stream, binwire.MsgDecideResp, func(dst []byte, id uint64) []byte {
		return binwire.AppendDecide(dst, id, stream, spec)
	})
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", err
	}
	defer waiters.Put(w)
	d, est, node, err := binwire.DecodeDecideResp(w.body)
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", fmt.Errorf("client: %w", err)
	}
	return d, est, node, nil
}

func (t *binaryTransport) observe(ctx context.Context, stream int, fb alert.Feedback) error {
	w, err := t.call(ctx, stream, binwire.MsgObserveResp, func(dst []byte, id uint64) []byte {
		return binwire.AppendObserve(dst, id, stream, fb)
	})
	if err != nil {
		return err
	}
	defer waiters.Put(w)
	if err := binwire.DecodeObserveResp(w.body); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return nil
}
