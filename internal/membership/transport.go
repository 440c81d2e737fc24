package membership

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxReplyBody bounds how much of a heartbeat reply we will read: views
// are tiny (tens of bytes per member), so anything past 1 MiB is a
// misbehaving peer, not a big cluster.
const maxReplyBody = 1 << 20

// HTTPTransport delivers heartbeats as POST {addr}/v1/membership with a
// canonical JSON heartbeat body, expecting the peer's view back. It is
// the production transport; tests substitute in-process transports.
type HTTPTransport struct{}

// heartbeatClient times out after 2s: heartbeats are latency probes, so
// they must not hang on a wedged peer for the default client's eternity.
var heartbeatClient = &http.Client{Timeout: 2 * time.Second}

// Heartbeat implements Transport.
func (t *HTTPTransport) Heartbeat(ctx context.Context, addr string, hb Heartbeat) (View, error) {
	body, err := EncodeHeartbeat(hb)
	if err != nil {
		return View{}, err
	}
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + Endpoint
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return View{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := heartbeatClient.Do(req)
	if err != nil {
		return View{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBody))
	if err != nil {
		return View{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return View{}, fmt.Errorf("membership: heartbeat %s: status %d", url, resp.StatusCode)
	}
	return DecodeView(data)
}
