package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/netserve"
)

// TestDynamicRetryAfterHint: the *OverloadError a saturated gate surfaces
// carries the controller's live drain estimate — scaled to the measured
// service time — not the configured hint, which is set to an absurd hour
// so the test can tell the two apart.
func TestDynamicRetryAfterHint(t *testing.T) {
	c, fe := startFrontEnd(t, netserve.Config{
		MaxInflight: 1, MaxQueue: 1,
		RetryAfter:   time.Hour,
		ServiceDelay: 20 * time.Millisecond,
	})
	ctx := context.Background()

	// Warm the controller's service-time estimate through the only path a
	// client has: a served decide (ServiceDelay makes it ~20ms).
	if _, _, err := c.Decide(ctx, 1, testSpec()); err != nil {
		t.Fatal(err)
	}

	// Saturate: hold the only slot, park a patient request in the only
	// queue position.
	fe.HoldTokenForTest()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		c.Decide(ctx, 2, alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 30, AccuracyGoal: 0.9})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for fe.OverloadStats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked decide never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	_, _, err := c.Decide(ctx, 3, testSpec())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("probe error = %v, want *OverloadError", err)
	}
	// Drain estimate: (1 queued + 1) × ~20ms service / 1 inflight ≈ 40ms.
	// The exact value floats with scheduler jitter; what matters is that
	// it is in the measured range, not the 1h configured hint.
	if oe.RetryAfter < 40*time.Millisecond || oe.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want ~40ms drain estimate (configured hint is 1h)", oe.RetryAfter)
	}

	fe.ReleaseTokenForTest()
	<-parked
}
