package client

import (
	"net/http"
	"testing"
	"time"
)

// hintCase is one row of the hint-hygiene table: a millisecond hint (the
// JSON body's retry_after_ms, or an error frame's field) and the
// Retry-After header values of the reply, in order. A row with no headers
// is a reply either wire can produce.
type hintCase struct {
	name    string
	ms      int64
	headers []string
	want    time.Duration
}

// hintCases is the one table for retryHint, the single hint rule of both
// wires. It holds the hostile corners: precedence between the body hint and
// the header, duplicate Retry-After headers (forbidden by RFC 9110 but sent
// anyway by misbehaving servers — Header.Get takes the first), the exact
// cap boundary in every form a hint can take, non-finite values, and
// millisecond counts that overflow a Duration. None may ever yield a
// negative or multi-hour sleep.
func hintCases() []hintCase {
	return []hintCase{
		{name: "body ms preferred over header", ms: 250, headers: []string{"5"}, want: 250 * time.Millisecond},
		{name: "negative body ms ignored, header used", ms: -100, headers: []string{"2"}, want: 2 * time.Second},
		{name: "whitespace-padded seconds", headers: []string{"  2  "}, want: 2 * time.Second},
		{name: "huge seconds degrade to no hint", headers: []string{"86400"}, want: 0},
		{name: "at the cap", headers: []string{"3600"}, want: 3600 * time.Second},
		{name: "just over the cap", headers: []string{"3600.5"}, want: 0},
		{name: "positive infinity", headers: []string{"+Inf"}, want: 0},
		{name: "duplicate headers take the first", headers: []string{"2", "900"}, want: 2 * time.Second},
		{name: "duplicate with garbage first stays unhinted", headers: []string{"soon", "2"}, want: 0},
		{name: "http-date two hours ahead", headers: []string{time.Now().Add(2 * time.Hour).UTC().Format(http.TimeFormat)}, want: 0},

		{name: "zero means no hint", ms: 0, want: 0},
		{name: "negative means no hint", ms: -250, want: 0},
		{name: "one millisecond", ms: 1, want: time.Millisecond},
		{name: "typical hint", ms: 50, want: 50 * time.Millisecond},
		{name: "at the one-hour cap", ms: 3_600_000, want: time.Hour},
		{name: "just over the cap degrades to no hint", ms: 3_600_001, want: 0},
		{name: "two hours degrades to no hint", ms: 7_200_000, want: 0},
		{name: "absurdly large degrades to no hint", ms: 1 << 50, want: 0},
		{name: "overflowing a Duration degrades to no hint", ms: 10_000_000_000_000, want: 0},
	}
}

// TestRetryAfterOfEdgeCases runs every row through retryHint the way the
// HTTP codec calls it.
func TestRetryAfterOfEdgeCases(t *testing.T) {
	for _, tc := range hintCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := http.Header{}
			for _, v := range tc.headers {
				h.Add("Retry-After", v)
			}
			if got := retryHint(tc.ms, h.Get("Retry-After")); got != tc.want {
				t.Errorf("retryHint(ms=%d, headers=%q) = %v, want %v", tc.ms, tc.headers, got, tc.want)
			}
		})
	}
}
