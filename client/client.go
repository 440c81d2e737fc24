// Package client is the typed Go client for the ALERT network serving
// front end (internal/netserve, hosted by cmd/alertserve).
//
//	c, err := client.New("http://127.0.0.1:8372", client.Options{})
//	d, est, err := c.Decide(ctx, streamID, spec)
//	err = c.Observe(ctx, streamID, alert.Feedback{Decision: d, Latency: measured})
//
// One call path, two codecs. Every method of the per-input loop (Decide,
// Observe) has one body: run the op on the client's codec under the
// overload retry loop. The codec, fixed by New, is one of two behind an
// unexported interface:
//
//   - HTTP/JSON (the default): the /v1 API over one pooled http.Transport
//     with keep-alive, so the steady-state cost per decision is one
//     loopback round trip.
//   - binwire (Options.PreferBinary): the loop rides a small pool of
//     persistent, pipelined TCP connections to the same host:port, each
//     switched from HTTP to binwire by GET /v1/binwire with "Upgrade:
//     alert-binwire": concurrent Decides share a connection and reach the
//     server as one burst. A server that refuses the upgrade fails the
//     call with an error naming the status it answered; the client never
//     falls back to JSON on its own.
//
// Everything else has one wire, HTTP, whatever the options: DecideBatch,
// the stream ops (EvictStream, ExportStream, ImportStream) and the
// control-plane reads (Stats, Streams, Membership).
//
// A codec only encodes one attempt and decodes its reply. Everything the
// wires must agree on is written once above them: which statuses are
// overload (*OverloadError) and which are not (*APIError), and what counts
// as a usable Retry-After hint. Both wires carry
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
	// overload surfaces as *OverloadError. A retry with no usable hint
	// waits 10ms, doubling per hintless retry; every wait, hinted or not,
	// is capped at 2s so a misconfigured server cannot stall a caller that
	// set no context deadline.
	MaxRetries int
	// BackoffSeed seeds the deterministic jitter applied to every wait
	// (equal-jitter: the second half of the wait is uniformly random).
	// Clients with different seeds desynchronize their retries instead of
	// stampeding the server in lockstep; tests pick a seed to make retry
	// timing reproducible. 0 selects a fixed default seed.
	BackoffSeed int64
	// BinaryAddr, when set, routes the per-input loop over binwire to a
	// raw binwire listener at this host:port (netserve.NewBinary), with no
	// HTTP upgrade. It exists for bench/alertbench, which serves binwire on
	// a listener of its own; servers reach binwire through PreferBinary.
	BinaryAddr string
	// PreferBinary routes the per-input loop (Decide, Observe) over binwire
	// on the base URL's own host:port (port 80 when the URL names none),
	// each connection upgraded from HTTP with GET /v1/binwire. Overload and
	// retry semantics are identical on both codecs; DecideBatch, the stream
	// ops and the control-plane reads always use HTTP. binwire does not run
	// over TLS, so New rejects PreferBinary with an https URL. Ignored when
	// BinaryAddr is set.
	PreferBinary bool
}

// codec is one wire format for the per-input loop. Each method is ONE
// attempt of one op: encode the request, exchange it, decode the reply. A
// reply that is not the op's success is returned through statusError, so
// both implementations produce the same error values; retrying lives in
// the Client methods above it.
type codec interface {
	decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error)
	observe(ctx context.Context, stream int, fb alert.Feedback) error
}

// Client talks to one front end. It is safe for concurrent use; all
// methods honor their context.
type Client struct {
	http        httpCodec
	ownedHC     bool
	maxRetries  int
	backoffBase time.Duration // first hintless retry wait; doubles per retry
	backoffCap  time.Duration // bound on every retry wait

	// rng drives the retry jitter; mu serializes it (Decide et al. are
	// documented safe for concurrent use).
	mu  sync.Mutex
	rng *mathx.Rand

	// data is the per-input loop's codec, &c.http or a *binaryTransport,
	// fixed by New.
	data codec
}

// New validates the base URL (e.g. "http://127.0.0.1:8372") and returns a
// ready client.
func New(baseURL string, opts Options) (*Client, error) {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", baseURL)
	}
	c := &Client{
		http:        httpCodec{base: u, hc: opts.HTTPClient},
		maxRetries:  opts.MaxRetries,
		backoffBase: 10 * time.Millisecond,
		backoffCap:  2 * time.Second,
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
	switch {
	case opts.BinaryAddr != "":
		c.data = newBinaryTransport(opts.BinaryAddr, false)
	case opts.PreferBinary && u.Scheme == "https":
		return nil, fmt.Errorf("client: PreferBinary needs an http base URL, not %q: binwire does not run over TLS", baseURL)
	case opts.PreferBinary:
		addr := u.Host
		if u.Port() == "" {
			addr = net.JoinHostPort(u.Hostname(), "80")
		}
		c.data = newBinaryTransport(addr, true)
	default:
		c.data = &c.http
	}
	return c, nil
}

// Close releases idle connections. The client must not be used afterwards.
func (c *Client) Close() {
	if c.ownedHC {
		c.http.hc.CloseIdleConnections()
	}
	if bt, ok := c.data.(*binaryTransport); ok {
		bt.Close()
	}
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
	err = c.withRetry(ctx, func(ctx context.Context) (err error) {
		d, est, node, err = c.data.decide(ctx, stream, spec)
		return err
	})
	return d, est, node, err
}

// Observe reports a measurement for the stream. The server enqueues it
// before replying, so a subsequent Decide on the same stream (over this or
// any connection) sees the updated filter state.
func (c *Client) Observe(ctx context.Context, stream int, fb alert.Feedback) error {
	return c.withRetry(ctx, func(ctx context.Context) error {
		return c.data.observe(ctx, stream, fb)
	})
}

// DecideBatch dispatches the whole batch in one HTTP request, whatever
// the options; results come back in request order. Requests sharing a
// stream are served in batch order.
func (c *Client) DecideBatch(ctx context.Context, reqs []alert.BatchRequest) (res []alert.BatchResult, err error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	err = c.withRetry(ctx, func(ctx context.Context) (err error) {
		res, err = c.http.batch(ctx, reqs)
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
func (c *Client) ExportStream(ctx context.Context, stream int) (snap alert.SessionSnapshot, err error) {
	var blob []byte
	err = c.withRetry(ctx, func(ctx context.Context) (err error) {
		blob, err = c.http.export(ctx, stream)
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
