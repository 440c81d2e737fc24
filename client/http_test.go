package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/netserve"
)

// cannedReply answers every request with one fixed 2xx reply, so an
// allocation count sees the client and not a server.
type cannedReply struct {
	status int
	body   []byte
}

func (c cannedReply) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{StatusCode: c.status, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(c.body)), Request: req}, nil
}

// TestJSONLoopClientAllocs pins what a JSON decide and observe allocate on
// the client beyond the canned transport's own reply: 15 and 14 on Go
// 1.24, where encoding/json and a URL parse per call cost 27 and 16.
func TestJSONLoopClientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop recycled buffers")
	}
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d := alert.Decision{Model: 3, Cap: 5, CapW: 42.5, PlannedStop: 0.15}
	reply, err := json.Marshal(netserve.DecideResponse{
		Decision: netserve.FromDecision(d),
		Estimate: netserve.Estimate{Model: 3, Cap: 5, StopStage: 2, LatMeanS: 0.1234567, PrDeadline: 0.987654321,
			Quality: 0.91, PrQuality: 0.95, EnergyJ: 3.25, PlannedStopS: 0.15},
		NodeID: "node-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		canned cannedReply
		op     func(c *Client) error
		max    float64
	}{
		{"decide", cannedReply{http.StatusOK, append(reply, '\n')}, func(c *Client) error {
			_, _, err := c.Decide(ctx, 1, spec)
			return err
		}, 16},
		{"observe", cannedReply{http.StatusAccepted, []byte("{}\n")}, func(c *Client) error {
			return c.Observe(ctx, 1, alert.Feedback{Decision: d, Latency: 0.11, CompletedStage: -1})
		}, 15},
	} {
		c, err := New("http://127.0.0.1:8372", Options{HTTPClient: &http.Client{Transport: tc.canned}})
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1:8372/v1/decide", nil)
		harness := testing.AllocsPerRun(50, func() { tc.canned.RoundTrip(req) })
		got := testing.AllocsPerRun(50, func() {
			if err := tc.op(c); err != nil {
				t.Fatal(err)
			}
		}) - harness
		t.Logf("%s: %.0f allocs beyond the canned reply's %.0f", tc.name, got, harness)
		if got > tc.max {
			t.Errorf("%s: %.0f allocs beyond the canned reply's %.0f, want at most %.0f", tc.name, got, harness, tc.max)
		}
	}
}
