package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/netserve"
)

// httpCodec is the HTTP/JSON codec: the /v1 API over a pooled, keep-alive
// http.Client. Besides the per-input loop it carries everything that has no
// binwire form: the stream ops (evict, snapshot, restore) and the
// control-plane reads. The loop's bodies go through netserve's hand-written
// codec; every other body through encoding/json.
type httpCodec struct {
	base *url.URL // parsed once by New; each request copies it
	hc   *http.Client
}

// replies recycles the buffers the loop's replies are read into.
var replies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// A reply buffer that an unusually large batch grew past this is dropped
// rather than pooled.
const maxPooledReply = 64 << 10

// once is one HTTP exchange outside the per-input loop: in (if any) is sent
// as the JSON body, a 2xx reply is decoded into out (if any), anything else
// becomes statusError.
func (h *httpCodec) once(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s: %w", path, err)
		}
	}
	return h.exchange(ctx, method, path, body, func(r io.Reader) error {
		if out == nil {
			return nil
		}
		return json.NewDecoder(r).Decode(out)
	})
}

// loop is one POST of the per-input loop: encode appends the request body
// to a fresh buffer of capacity size (the transport may still read it after
// Do returns, so it is never reused), and decode (nil for none) parses the
// whole 2xx reply, read into a pooled buffer.
func (h *httpCodec) loop(ctx context.Context, path string, size int, encode func([]byte) ([]byte, error), decode func([]byte) error) error {
	body, err := encode(make([]byte, 0, size))
	if err != nil {
		return fmt.Errorf("client: encoding %s: %w", path, err)
	}
	return h.exchange(ctx, http.MethodPost, path, body, func(r io.Reader) error {
		if decode == nil {
			return nil
		}
		buf := replies.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= maxPooledReply {
				buf.Reset()
				replies.Put(buf)
			}
		}()
		if _, err := buf.ReadFrom(r); err != nil {
			return err
		}
		return decode(buf.Bytes())
	})
}

// Request body capacities for loop: room for any valid decide or observe
// body, even with every number at its longest (221 and 342 bytes).
const (
	decideBodySize  = 256
	observeBodySize = 384
)

// exchange sends body (nil for none) as the JSON request body and hands a
// 2xx reply's body to read; any other reply becomes statusError.
func (h *httpCodec) exchange(ctx context.Context, method, path string, body []byte, read func(io.Reader) error) error {
	u := *h.base
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	req := (&http.Request{
		Method:     method,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
	}).WithContext(ctx)
	if body != nil {
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() {
		// Drain so the keep-alive connection returns to the pool.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode >= 300 {
		var e netserve.ErrorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		return statusError(resp.StatusCode, e.Error, e.RetryAfterMs, resp.Header.Get("Retry-After"))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

func streamPath(stream int) string { return "/v1/streams/" + strconv.Itoa(stream) }

func (h *httpCodec) decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error) {
	in := netserve.DecideRequest{Stream: stream, Spec: netserve.FromSpec(spec)}
	var out netserve.DecideResponse
	err := h.loop(ctx, "/v1/decide", decideBodySize,
		func(b []byte) ([]byte, error) { return netserve.AppendDecideRequest(b, &in) },
		func(b []byte) error { return netserve.DecodeDecideResponse(b, &out) })
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", err
	}
	return out.Decision.ToDecision(), out.Estimate.ToEstimate(), out.NodeID, nil
}

func (h *httpCodec) observe(ctx context.Context, stream int, fb alert.Feedback) error {
	in := netserve.ObserveRequest{Stream: stream, Feedback: netserve.FromFeedback(fb)}
	return h.loop(ctx, "/v1/observe", observeBodySize,
		func(b []byte) ([]byte, error) { return netserve.AppendObserveRequest(b, &in) }, nil)
}

func (h *httpCodec) batch(ctx context.Context, reqs []alert.BatchRequest) ([]alert.BatchResult, error) {
	in := netserve.BatchRequest{Requests: make([]netserve.DecideRequest, len(reqs))}
	for i, r := range reqs {
		in.Requests[i] = netserve.DecideRequest{Stream: r.Stream, Spec: netserve.FromSpec(r.Spec)}
	}
	var out netserve.BatchResponse
	err := h.loop(ctx, "/v1/decide-batch", 32+decideBodySize*len(reqs),
		func(b []byte) ([]byte, error) { return netserve.AppendBatchRequest(b, &in) },
		func(b []byte) error { return netserve.DecodeBatchResponse(b, &out) })
	if err != nil {
		return nil, err
	}
	res := make([]alert.BatchResult, len(out.Results))
	for i, r := range out.Results {
		res[i] = alert.BatchResult{
			Stream:   r.Stream,
			Decision: r.Decision.ToDecision(),
			Estimate: r.Estimate.ToEstimate(),
		}
	}
	return res, nil
}

func (h *httpCodec) evict(ctx context.Context, stream int) error {
	return h.once(ctx, http.MethodDelete, streamPath(stream), nil, nil)
}

// export drains, snapshots and removes the stream's session; the caller
// owns the returned blob.
func (h *httpCodec) export(ctx context.Context, stream int) ([]byte, error) {
	var out netserve.SnapshotResponse
	if err := h.once(ctx, http.MethodGet, streamPath(stream)+"/snapshot", nil, &out); err != nil {
		return nil, err
	}
	blob, err := base64.StdEncoding.DecodeString(out.SnapshotB64)
	if err != nil {
		return nil, fmt.Errorf("client: bad snapshot encoding from server: %w", err)
	}
	return blob, nil
}

func (h *httpCodec) restore(ctx context.Context, stream int, blob []byte) error {
	return h.once(ctx, http.MethodPut, streamPath(stream),
		netserve.ImportRequest{SnapshotB64: base64.StdEncoding.EncodeToString(blob)}, nil)
}
