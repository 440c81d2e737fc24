// Package client is the typed Go client for the ALERT network serving
// front end (internal/netserve, hosted by cmd/alertserve).
//
//	c, err := client.New("http://127.0.0.1:8372", client.Options{})
//	d, est, err := c.Decide(ctx, streamID, spec)
//	err = c.Observe(ctx, streamID, alert.Feedback{Decision: d, Latency: measured})
//
// One call path, two codecs. Every method of the per-input loop (Decide,
// Observe, DecideBatch) has one body: pick the wire, run the op under the
// overload retry loop. The wire is one of two codecs behind an unexported
// interface:
//
//   - HTTP/JSON (the default): the /v1 API over one pooled http.Transport
//     with keep-alive, so the steady-state cost per decision is one
//     loopback round trip and a DecideBatch amortizes even that.
//   - binwire: when the server also listens on a binwire port (alertserve
//     -binary-addr), set Options.BinaryAddr — or Options.PreferBinary to
//     discover it from /v1/stats — and the loop rides a small pool of
//     persistent, pipelined TCP connections instead.
//
// Everything else has one wire, HTTP, whatever the options: the stream
// ops (EvictStream, ExportStream, CheckpointStream, ImportStream) and the
// control-plane reads (Stats, Streams, Membership).
//
// A codec only encodes one attempt and decodes its reply. Everything the
// wires must agree on is written once above them: which statuses are
// overload (*OverloadError) and which are not (*APIError), what counts as
// a usable Retry-After hint, and the batch result count. Both wires carry
// every float64 bit-exactly, so a stream driven through this client makes
// byte-identical decisions to one driven against alert.Server in-process,
// over either codec (cmd/alertload -addr pins this).
//
// Overload: the server sheds load at its admission gate with 429 (queue
// full or Spec deadline expired while queued) and 503 (draining or
// restoring), both carrying a retry hint. Those surface as
// *client.OverloadError; with Options.MaxRetries > 0 the client retries
// them itself after the hinted backoff. Retrying is safe: a 429/503 is
// rejected before the request touches any stream state, so a retry never
// double-applies anything.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/membership"
	"github.com/alert-project/alert/internal/netserve"
)

// Options configure a Client. The zero value selects a pooled transport
// with keep-alive and no automatic retries.
type Options struct {
	// HTTPClient overrides the underlying HTTP client (for timeouts,
	// custom transports, or tests). Nil builds one with a dedicated pooled
	// transport.
	HTTPClient *http.Client
	// MaxRetries is how many times a request rejected with 429/503 is
	// retried after the server's Retry-After hint. 0 disables retries:
	// overload surfaces as *OverloadError.
	MaxRetries int
	// BackoffBase is the wait before the first retry when the server sent
	// no usable Retry-After hint; each subsequent hintless retry doubles it
	// (capped by BackoffCap). A usable hint overrides the schedule for that
	// attempt. 0 means 10ms.
	BackoffBase time.Duration
	// BackoffCap bounds every retry wait, hinted or not, so a misconfigured
	// server cannot stall a caller that set no context deadline. 0 means 2s.
	BackoffCap time.Duration
	// BackoffSeed seeds the deterministic jitter applied to every wait
	// (equal-jitter: the second half of the wait is uniformly random).
	// Clients with different seeds desynchronize their retries instead of
	// stampeding the server in lockstep; tests pick a seed to make retry
	// timing reproducible. 0 selects a fixed default seed.
	BackoffSeed int64
	// BinaryAddr, when set, routes the per-input loop (Decide, Observe,
	// DecideBatch) over the binwire TCP transport at this host:port
	// instead of HTTP/JSON. Overload and retry semantics are identical on
	// both transports; the stream ops and the control-plane reads always
	// use HTTP.
	BinaryAddr string
	// PreferBinary discovers the server's advertised binary listener from
	// GET /v1/stats on first use and upgrades the data plane to it,
	// falling back to JSON silently when the server does not advertise
	// one. It lets cluster clients (client/cluster), which only know
	// members' HTTP addresses, find each member's binary listener on
	// their own. Ignored when BinaryAddr is set explicitly.
	PreferBinary bool
}

// codec is one wire format for the per-input loop. Each method is ONE
// attempt of one op: encode the request, exchange it, decode the reply. A
// reply that is not the op's success is returned through statusError, so
// both implementations produce the same error values; retrying and the
// batch count check live in the Client methods above it.
type codec interface {
	decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error)
	observe(ctx context.Context, stream int, fb alert.Feedback) error
	batch(ctx context.Context, reqs []alert.BatchRequest) ([]alert.BatchResult, error)
}

// Client talks to one front end. It is safe for concurrent use; all
// methods honor their context.
type Client struct {
	http        httpCodec
	ownedHC     bool
	maxRetries  int
	backoffBase time.Duration
	backoffCap  time.Duration

	// rng drives the retry jitter; mu serializes it (Decide et al. are
	// documented safe for concurrent use).
	mu  sync.Mutex
	rng *mathx.Rand

	// data is the per-input loop's codec: &c.http or a *binaryTransport, fixed
	// for the client's lifetime once known. It is set at construction
	// unless PreferBinary leaves it to discovery, when it stays nil until
	// the first successful stats probe (see wire).
	dataMu sync.Mutex
	data   codec
}

// New validates the base URL (e.g. "http://127.0.0.1:8372") and returns a
// ready client.
func New(baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", baseURL)
	}
	c := &Client{
		http:        httpCodec{base: strings.TrimRight(baseURL, "/"), hc: opts.HTTPClient},
		maxRetries:  opts.MaxRetries,
		backoffBase: opts.BackoffBase,
		backoffCap:  opts.BackoffCap,
	}
	if c.backoffBase <= 0 {
		c.backoffBase = 10 * time.Millisecond
	}
	if c.backoffCap <= 0 {
		c.backoffCap = 2 * time.Second
	}
	seed := opts.BackoffSeed
	if seed == 0 {
		seed = 1
	}
	c.rng = mathx.NewRand(seed)
	if c.http.hc == nil {
		// A dedicated transport so this client's connection pool is not
		// shared with (or limited by) http.DefaultTransport users. The
		// per-host idle limit is what makes a many-goroutine load
		// generator reuse connections instead of churning them.
		c.http.hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}}
		c.ownedHC = true
	}
	if opts.BinaryAddr != "" || !opts.PreferBinary {
		c.settle(opts.BinaryAddr)
	}
	return c, nil
}

// Close releases idle connections. The client must not be used afterwards.
func (c *Client) Close() {
	if c.ownedHC {
		c.http.hc.CloseIdleConnections()
	}
	c.dataMu.Lock()
	data := c.data
	c.dataMu.Unlock()
	if bt, ok := data.(*binaryTransport); ok {
		bt.Close()
	}
}

// wire returns the codec for the per-input loop. Under PreferBinary the
// first calls probe GET /v1/stats for an advertised binary listener; the
// outcome of a successful probe is kept for the client's lifetime (a
// server's transports are fixed at startup), while a failed probe — server
// unreachable — leaves discovery open so a client built before its server
// came up still upgrades. The probe runs outside the lock and under the
// calling goroutine's own context, so a server that accepts and never
// answers stalls nobody past their deadline (and never Close); concurrent
// first callers may each probe, and the first to finish settles it.
func (c *Client) wire(ctx context.Context) codec {
	c.dataMu.Lock()
	data := c.data
	c.dataMu.Unlock()
	if data != nil {
		return data
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return &c.http // transient; the JSON path will surface the error
	}
	return c.settle(c.resolveBinaryAddr(st.BinaryAddr))
}

// settle fixes the data-plane codec — binwire at binAddr, or HTTP/JSON when
// binAddr is empty — unless an earlier caller already has, and returns the
// one in force.
func (c *Client) settle(binAddr string) codec {
	c.dataMu.Lock()
	defer c.dataMu.Unlock()
	if c.data == nil {
		c.data = &c.http
		if binAddr != "" {
			c.data = newBinaryTransport(binAddr)
		}
	}
	return c.data
}

// resolveBinaryAddr fixes up an advertised binary address whose host part
// is unspecified (a server listening on ":9001" advertises exactly that):
// the client substitutes the host it already reaches over HTTP.
func (c *Client) resolveBinaryAddr(addr string) string {
	if addr == "" {
		return ""
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	unspecified := host == ""
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		unspecified = true
	}
	if !unspecified {
		return addr
	}
	u, err := url.Parse(c.http.base)
	if err != nil || u.Hostname() == "" {
		return addr
	}
	return net.JoinHostPort(u.Hostname(), port)
}

// OverloadError is a 429/503 admission rejection: the server's queue was
// full, the request's deadline expired while queued, or the server is
// draining. RetryAfter carries the server's backoff hint.
type OverloadError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("client: server rejected request (%d %s): %s, retry after %s",
		e.StatusCode, http.StatusText(e.StatusCode), e.Message, e.RetryAfter)
}

// APIError is any other non-2xx response.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// statusError is the one classification of a refused request, for both
// wires (binwire error-frame codes mirror the HTTP statuses): 429 and 503
// are overload and retryable, everything else is not. retryAfterMs is the
// millisecond hint of the JSON error body or the error frame, header the
// HTTP Retry-After value ("" on binwire).
func statusError(status int, msg string, retryAfterMs int64, header string) error {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return &OverloadError{StatusCode: status, Message: msg, RetryAfter: retryHint(retryAfterMs, header)}
	}
	return &APIError{StatusCode: status, Message: msg}
}

// maxHint is the longest server backoff hint the client believes.
const maxHint = time.Hour

// retryHint is the one hint-hygiene rule for both wires. It prefers the
// millisecond field over the whole-second header, and treats anything
// missing, unparseable or nonsensical — non-positive, non-finite, over an
// hour, or too large for a Duration — as no hint at all (0), so a garbled
// server can neither stall the retry loop nor make it retry immediately:
// the loop substitutes its own capped exponential schedule.
func retryHint(ms int64, header string) time.Duration {
	// Bounded before the multiplication, which overflows int64 for large ms.
	if ms > 0 && ms <= int64(maxHint/time.Millisecond) {
		return time.Duration(ms) * time.Millisecond
	}
	// RFC 9110 allows delay-seconds or an HTTP-date; accept both.
	header = strings.TrimSpace(header)
	if secs, err := strconv.ParseFloat(header, 64); err == nil {
		if secs > 0 && secs <= maxHint.Seconds() {
			return time.Duration(secs * float64(time.Second))
		}
		return 0
	}
	if at, err := http.ParseTime(header); err == nil {
		if d := time.Until(at); d > 0 && d <= maxHint {
			return d
		}
	}
	return 0
}

// Decide requests the configuration for the stream's next input.
func (c *Client) Decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, error) {
	d, est, _, err := c.DecideServed(ctx, stream, spec)
	return d, est, err
}

// DecideServed is Decide plus the identity of the node that served the
// decision (the server's configured -node-id; empty for a standalone
// node). The chaos harness's single-ownership checker uses it to attribute
// every decision to a member without a second round trip.
func (c *Client) DecideServed(ctx context.Context, stream int, spec alert.Spec) (d alert.Decision, est alert.Estimate, node string, err error) {
	w := c.wire(ctx)
	err = c.withRetry(ctx, func(ctx context.Context) (err error) {
		d, est, node, err = w.decide(ctx, stream, spec)
		return err
	})
	return d, est, node, err
}

// Observe reports a measurement for the stream. The server enqueues it
// before replying, so a subsequent Decide on the same stream (over this or
// any connection) sees the updated filter state.
func (c *Client) Observe(ctx context.Context, stream int, fb alert.Feedback) error {
	w := c.wire(ctx)
	return c.withRetry(ctx, func(ctx context.Context) error {
		return w.observe(ctx, stream, fb)
	})
}

// DecideBatch dispatches the whole batch in one request; results come back
// in request order. Requests sharing a stream are served in batch order.
func (c *Client) DecideBatch(ctx context.Context, reqs []alert.BatchRequest) (res []alert.BatchResult, err error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	w := c.wire(ctx)
	err = c.withRetry(ctx, func(ctx context.Context) (err error) {
		res, err = w.batch(ctx, reqs)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(res) != len(reqs) {
		return nil, fmt.Errorf("client: batch returned %d results for %d requests", len(res), len(reqs))
	}
	return res, nil
}

// Stats fetches the server's counter snapshots.
func (c *Client) Stats(ctx context.Context) (netserve.StatsResponse, error) {
	var out netserve.StatsResponse
	err := c.get(ctx, "/v1/stats", &out)
	return out, err
}

// Membership fetches the node's live membership view — the addresses and
// lease states of every member the node knows, as maintained by its
// membership agent. Nodes running without membership (no -membership flag)
// answer 404, surfaced as *APIError; a routing client then keeps the member
// set it has (cluster.SyncMembership leaves it untouched when no member
// serves a view). The reply is decoded with the membership
// package's strict decoder, so a malformed view is an error here, never a
// silently partial member set.
func (c *Client) Membership(ctx context.Context) (membership.View, error) {
	var raw json.RawMessage
	if err := c.get(ctx, membership.Endpoint, &raw); err != nil {
		return membership.View{}, err
	}
	v, err := membership.DecodeView(raw)
	if err != nil {
		return membership.View{}, fmt.Errorf("client: bad membership view from server: %w", err)
	}
	return v, nil
}

// Streams lists the server's live stream ids.
func (c *Client) Streams(ctx context.Context) ([]int, error) {
	var out netserve.StreamsResponse
	if err := c.get(ctx, "/v1/streams", &out); err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// get runs one control-plane read — always HTTP — under the retry loop.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.withRetry(ctx, func(ctx context.Context) error {
		return c.http.once(ctx, http.MethodGet, path, nil, out)
	})
}

// EvictStream releases the stream's server-side session. Evicting an
// unknown stream succeeds (it is a no-op server-side).
func (c *Client) EvictStream(ctx context.Context, stream int) error {
	return c.withRetry(ctx, func(ctx context.Context) error {
		return c.http.evict(ctx, stream)
	})
}

// ErrNoSession reports that an export found no session for the stream: the
// stream never materialized (or was already evicted), so there is no state
// to ship — the migration target can simply serve it fresh.
var ErrNoSession = errors.New("client: stream has no session")

// ExportStream drains, snapshots, and removes the stream's session on the
// server — the send side of a migration. It returns ErrNoSession (wrapped)
// when the stream has no session. The snapshot round-trips the wire as
// canonical binary bytes (base64 in JSON), so the restored session is
// bit-identical to the exported one.
func (c *Client) ExportStream(ctx context.Context, stream int) (alert.SessionSnapshot, error) {
	return c.snapshot(ctx, stream, true)
}

// CheckpointStream snapshots the stream's session on the server WITHOUT
// removing it — the periodic-backup read behind crash recovery. It returns
// ErrNoSession (wrapped) when the stream has no session. Unlike
// ExportStream it is ungated server-side and keeps answering under
// overload and drain.
func (c *Client) CheckpointStream(ctx context.Context, stream int) (alert.SessionSnapshot, error) {
	return c.snapshot(ctx, stream, false)
}

// snapshot is export (remove) and checkpoint (!remove).
func (c *Client) snapshot(ctx context.Context, stream int, remove bool) (snap alert.SessionSnapshot, err error) {
	var blob []byte
	err = c.withRetry(ctx, func(ctx context.Context) (err error) {
		blob, err = c.http.snapshot(ctx, stream, remove)
		return err
	})
	var ae *APIError
	if errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound {
		return snap, fmt.Errorf("%w: stream %d", ErrNoSession, stream)
	}
	if err != nil {
		return snap, err
	}
	if err := snap.UnmarshalBinary(blob); err != nil {
		return snap, fmt.Errorf("client: %w", err)
	}
	return snap, nil
}

// ImportStream restores an exported session under the given stream id on
// the server — the receive side of a migration. The server refuses (409,
// surfaced as *APIError) if it is already serving a session for the
// stream, and 503 while draining.
func (c *Client) ImportStream(ctx context.Context, stream int, snap alert.SessionSnapshot) error {
	blob, err := snap.MarshalBinary()
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.withRetry(ctx, func(ctx context.Context) error {
		return c.http.restore(ctx, stream, blob)
	})
}

// withRetry runs fn under the overload retry loop — the single place both
// codecs get their backoff behavior from. Hintless rejections walk a
// capped exponential schedule; a usable Retry-After hint overrides the
// schedule for that attempt but not the schedule's growth. Every wait is
// equal-jittered so a fleet of identically configured clients spreads its
// retries instead of stampeding the gate in lockstep. Only *OverloadError
// retries: a 429/503 is rejected before the request touches any stream
// state, so a retry never double-applies anything.
func (c *Client) withRetry(ctx context.Context, fn func(context.Context) error) error {
	backoff := c.backoffBase
	for attempt := 0; ; attempt++ {
		err := fn(ctx)
		if err == nil || attempt >= c.maxRetries {
			return err // before oe exists: errors.As makes it a heap allocation
		}
		var oe *OverloadError
		if !errors.As(err, &oe) {
			return err
		}
		wait := oe.RetryAfter
		if wait <= 0 {
			// Missing or garbled hint: the server is still overloaded, so
			// back off on our own schedule rather than hammering it.
			wait = backoff
		}
		if wait > c.backoffCap {
			wait = c.backoffCap
		}
		wait = c.jitter(wait)
		if backoff < c.backoffCap {
			backoff *= 2
			if backoff > c.backoffCap {
				backoff = c.backoffCap
			}
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// jitter equal-jitters a wait: the first half is kept, the second half is
// drawn uniformly, so the expected wait is 3d/4 and no two clients (with
// different seeds) retry in phase.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	half := d / 2
	return half + time.Duration(f*float64(half))
}
