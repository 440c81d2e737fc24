package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/netserve"
)

// httpCodec is the HTTP/JSON codec: the /v1 API over a pooled, keep-alive
// http.Client. Besides the per-input loop it carries everything that has no
// binwire form: the stream ops (evict, snapshot, restore) and the
// control-plane reads.
type httpCodec struct {
	base string
	hc   *http.Client
}

// once is one HTTP exchange: in (if any) is sent as the JSON body, a 2xx
// reply is decoded into out (if any), anything else becomes statusError.
func (h *httpCodec) once(ctx context.Context, method, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding %s: %w", path, err)
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if in != nil {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", path, err)
		}
	}
	return nil
}

func streamPath(stream int) string { return "/v1/streams/" + strconv.Itoa(stream) }

func (h *httpCodec) decide(ctx context.Context, stream int, spec alert.Spec) (alert.Decision, alert.Estimate, string, error) {
	var out netserve.DecideResponse
	err := h.once(ctx, http.MethodPost, "/v1/decide",
		netserve.DecideRequest{Stream: stream, Spec: netserve.FromSpec(spec)}, &out)
	if err != nil {
		return alert.Decision{}, alert.Estimate{}, "", err
	}
	return out.Decision.ToDecision(), out.Estimate.ToEstimate(), out.NodeID, nil
}

func (h *httpCodec) observe(ctx context.Context, stream int, fb alert.Feedback) error {
	return h.once(ctx, http.MethodPost, "/v1/observe",
		netserve.ObserveRequest{Stream: stream, Feedback: netserve.FromFeedback(fb)}, nil)
}

func (h *httpCodec) batch(ctx context.Context, reqs []alert.BatchRequest) ([]alert.BatchResult, error) {
	in := netserve.BatchRequest{Requests: make([]netserve.DecideRequest, len(reqs))}
	for i, r := range reqs {
		in.Requests[i] = netserve.DecideRequest{Stream: r.Stream, Spec: netserve.FromSpec(r.Spec)}
	}
	var out netserve.BatchResponse
	if err := h.once(ctx, http.MethodPost, "/v1/decide-batch", in, &out); err != nil {
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

// snapshot is export (remove) and checkpoint (!remove); the caller owns the
// returned blob.
func (h *httpCodec) snapshot(ctx context.Context, stream int, remove bool) ([]byte, error) {
	path := streamPath(stream) + "/checkpoint"
	if remove {
		path = streamPath(stream) + "/snapshot"
	}
	var out netserve.SnapshotResponse
	if err := h.once(ctx, http.MethodGet, path, nil, &out); err != nil {
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
