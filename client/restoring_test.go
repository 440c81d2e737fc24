package client

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/netserve"
)

// holdRecovery is a minimal netserve.Recovery whose restoring hold clears
// after a configured number of rejections — the shape of a failover
// restore finishing while a client is backing off.
type holdRecovery struct {
	mu     sync.Mutex
	stream int
	holds  int // remaining rejections before the hold clears
	seen   int // how many Restoring(stream)==true answers were served
}

func (h *holdRecovery) Restoring(stream int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if stream != h.stream || h.holds == 0 {
		return false
	}
	h.holds--
	h.seen++
	return true
}

func (h *holdRecovery) StoreReplica(int, string, int64, alert.SessionSnapshot) {}
func (h *holdRecovery) HandleClaim(int, string, string, int64) (bool, int64)   { return false, -1 }
func (h *holdRecovery) AnnounceImport(int, int64) bool                         { return false }

// TestRestoring503SurfacesRetryAfter: a decide for a mid-restore stream is
// shed with 503 and the server's Retry-After hint, surfaced as
// *OverloadError — the same contract as the admission 429s.
func TestRestoring503SurfacesRetryAfter(t *testing.T) {
	rec := &holdRecovery{stream: 5, holds: 1000}
	c, _ := startFrontEnd(t, netserve.Config{RetryAfter: 60 * time.Millisecond, Recovery: rec})

	_, _, err := c.Decide(context.Background(), 5, testSpec())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("mid-restore decide: got %v, want *OverloadError", err)
	}
	if oe.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", oe.StatusCode)
	}
	if oe.RetryAfter != 60*time.Millisecond {
		t.Fatalf("retry-after %s, want 60ms", oe.RetryAfter)
	}
	// Other streams are not held.
	if _, _, err := c.Decide(context.Background(), 6, testSpec()); err != nil {
		t.Fatalf("unheld stream rejected: %v", err)
	}
}

// TestRetryHonorsRestoring503Hint: the client's very first retry after a
// restoring 503 waits the server's hint (jitter keeps at least half), so
// one allowed retry is enough to ride out a hold that clears meanwhile.
func TestRetryHonorsRestoring503Hint(t *testing.T) {
	const hint = 60 * time.Millisecond
	rec := &holdRecovery{stream: 9, holds: 1} // one rejection, then clear
	c, _ := startFrontEnd(t, netserve.Config{RetryAfter: hint, Recovery: rec})

	retry, err := New(c.http.base.String(), Options{MaxRetries: 1, BackoffSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer retry.Close()

	start := time.Now()
	if _, _, err := retry.Decide(context.Background(), 9, testSpec()); err != nil {
		t.Fatalf("decide through a clearing restore hold failed: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < hint/2 {
		t.Fatalf("first retry fired after %s, before the jittered hint floor %s", elapsed, hint/2)
	}
	rec.mu.Lock()
	rejections := rec.seen
	rec.mu.Unlock()
	if rejections != 1 {
		t.Fatalf("served %d restoring rejections, want exactly 1 (success on first retry)", rejections)
	}
}
