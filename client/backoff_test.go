package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// rejectingServer answers 429 (with a scripted Retry-After header) until
// `serveAfter` requests have arrived, then succeeds, recording arrival
// times so tests can inspect the client's actual backoff.
type rejectingServer struct {
	mu         sync.Mutex
	arrivals   []time.Time
	serveAfter int
	retryAfter string // Retry-After header value; empty omits the header
}

func (s *rejectingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.arrivals = append(s.arrivals, time.Now())
	n := len(s.arrivals)
	s.mu.Unlock()
	if n <= s.serveAfter {
		if s.retryAfter != "" {
			w.Header().Set("Retry-After", s.retryAfter)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overload"}`)) // no retry_after_ms: header only
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"count":0,"ids":[]}`))
}

func (s *rejectingServer) gaps() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, 0, len(s.arrivals)-1)
	for i := 1; i < len(s.arrivals); i++ {
		out = append(out, s.arrivals[i].Sub(s.arrivals[i-1]))
	}
	return out
}

// TestBackoffToleratesGarbledRetryAfter: a 429 whose Retry-After header is
// unparseable must NOT be retried immediately (the old behavior treated it
// as 0); the client falls back to its own exponential schedule.
func TestBackoffToleratesGarbledRetryAfter(t *testing.T) {
	for _, header := range []string{"", "soon", "-5", "NaN", "1e99"} {
		srv := &rejectingServer{serveAfter: 3, retryAfter: header}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		c, err := New(ts.URL, Options{MaxRetries: 10, BackoffBase: 20 * time.Millisecond, BackoffSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		if _, err := c.Streams(context.Background()); err != nil {
			t.Fatalf("header %q: request failed through transient overload: %v", header, err)
		}
		for i, gap := range srv.gaps() {
			// Equal jitter keeps every wait >= half the scheduled one; the
			// schedule starts at BackoffBase and doubles.
			min := 20 * time.Millisecond / 2 << i
			if gap < min {
				t.Errorf("header %q: retry %d came after %s, want >= %s (immediate retry on a garbled hint?)",
					header, i+1, gap, min)
			}
		}
	}
}

// TestBackoffHonorsRetryAfterHeader: a parseable whole-second header is
// honored (scaled down only by jitter, never to zero).
func TestBackoffHonorsRetryAfterHeader(t *testing.T) {
	srv := &rejectingServer{serveAfter: 1, retryAfter: "1"}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := New(ts.URL, Options{MaxRetries: 2, BackoffSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if _, err := c.Streams(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Errorf("retry after %s, want >= 500ms (half the 1s hint)", elapsed)
	}
}

// TestBackoffCapBounds: the cap bounds hinted and scheduled waits alike, so
// an absurd server hint cannot stall the client for minutes.
func TestBackoffCapBounds(t *testing.T) {
	srv := &rejectingServer{serveAfter: 2, retryAfter: "3000"}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := New(ts.URL, Options{MaxRetries: 5, BackoffCap: 50 * time.Millisecond, BackoffSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if _, err := c.Streams(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("two capped retries took %s, want well under 2s", elapsed)
	}
}

// TestJitterDeterministic: the jitter stream is a pure function of the
// seed, so retry timing is reproducible in tests and distinct across
// differently-seeded clients.
func TestJitterDeterministic(t *testing.T) {
	mk := func(seed int64) *Client {
		c, err := New("http://127.0.0.1:1", Options{BackoffSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, other := mk(42), mk(42), mk(43)
	same, diff := true, true
	for i := 0; i < 16; i++ {
		wa, wb, wo := a.jitter(time.Second), b.jitter(time.Second), other.jitter(time.Second)
		if wa != wb {
			same = false
		}
		if wa != wo {
			diff = false
		}
		if wa < 500*time.Millisecond || wa > time.Second {
			t.Fatalf("jitter(1s) = %s, want within [500ms, 1s]", wa)
		}
	}
	if !same {
		t.Error("equal seeds produced different jitter streams")
	}
	if diff {
		t.Error("different seeds produced identical jitter streams")
	}
}

// TestRetryAfterOf pins the hint parser: millisecond body field first,
// then delay-seconds (integer or fractional), then HTTP-date; everything
// garbled, negative, or absurd is "no hint", never zero-wait.
func TestRetryAfterOf(t *testing.T) {
	if got := retryHint(250, ""); got != 250*time.Millisecond {
		t.Errorf("body hint: %s, want 250ms", got)
	}
	if got := retryHint(0, "2"); got != 2*time.Second {
		t.Errorf("integer seconds: %s, want 2s", got)
	}
	if got := retryHint(0, "0.5"); got != 500*time.Millisecond {
		t.Errorf("fractional seconds: %s, want 500ms", got)
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if got := retryHint(0, future); got <= 80*time.Second || got > 90*time.Second {
		t.Errorf("http-date: %s, want ~90s", got)
	}
	for _, bad := range []string{"", "soon", "-1", "NaN", "1e99", "0"} {
		if got := retryHint(0, bad); got != 0 {
			t.Errorf("garbled %q: %s, want 0 (no hint)", bad, got)
		}
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if got := retryHint(0, past); got != 0 {
		t.Errorf("past http-date: %s, want 0", got)
	}
}
