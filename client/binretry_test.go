package client

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"github.com/alert-project/alert/internal/binwire"
)

// errorFrameBody encodes an error frame and returns its body as the read
// loop would hand it to binError.
func errorFrameBody(t *testing.T, code uint16, ms int64, msg string) []byte {
	t.Helper()
	f, _, err := binwire.ParseFrame(binwire.AppendError(nil, 1, code, ms, msg))
	if err != nil {
		t.Fatal(err)
	}
	return f.Body
}

// TestBinRetryAfterEdgeCases runs the header-less rows of the shared hint
// table (hintCases — there is no second table to drift) through a real
// 429 error frame, so the binwire codec is pinned to the same retryHint the
// HTTP codec uses from the frame decode onwards.
func TestBinRetryAfterEdgeCases(t *testing.T) {
	for _, tc := range hintCases() {
		if len(tc.headers) > 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			var oe *OverloadError
			if err := binError(errorFrameBody(t, binwire.CodeOverloaded, tc.ms, "full")); !errors.As(err, &oe) {
				t.Fatalf("429 frame mapped to %#v", err)
			}
			if oe.RetryAfter != tc.want {
				t.Errorf("error frame retry_after_ms=%d surfaced as %v, want %v", tc.ms, oe.RetryAfter, tc.want)
			}
		})
	}
}

// TestBinErrorMapping checks error frames decode to the same error values
// the HTTP path produces for the equivalent status, so the retry loop and
// the cluster router treat both transports identically.
func TestBinErrorMapping(t *testing.T) {
	err := binError(errorFrameBody(t, binwire.CodeOverloaded, 40, "admission queue full"))
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.StatusCode != http.StatusTooManyRequests || oe.RetryAfter != 40*time.Millisecond {
		t.Fatalf("429 frame mapped to %#v", err)
	}
	err = binError(errorFrameBody(t, binwire.CodeUnavailable, 0, "server draining"))
	if !errors.As(err, &oe) || oe.StatusCode != http.StatusServiceUnavailable || oe.RetryAfter != 0 {
		t.Fatalf("503 frame mapped to %#v", err)
	}
	err = binError(errorFrameBody(t, binwire.CodeNotFound, 0, "stream has no session"))
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("404 frame mapped to %#v", err)
	}
}
