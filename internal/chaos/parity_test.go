package chaos

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/client/cluster"
	"github.com/alert-project/alert/internal/scenario"
)

// TestChaosParityPins pins absolute outputs of two seeded, lossless chaos
// drills: the SHA-256 of each stream's integer (model, cap) decision
// sequence as the cluster served it. The harness's own determinism check
// compares the cluster against a solo mirror fed the same inputs, so a
// swap of the per-stream workload and environment seeds passes it; these
// digests do not. Integers only, so the pins hold across Go versions whose
// math routines differ in the last bit.
func TestChaosParityPins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness run")
	}
	bursty, err := scenario.ByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	steady, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	managed, err := scenario.DefaultFleet(bursty, 6, 3, 48, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	unmanaged, err := scenario.DefaultUnmanagedFleet(steady, 6, 4, 36, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec   scenario.FleetSpec
		inputs int
		want   []string
	}{
		{managed, 48, []string{
			"1409f12d25856fa5c5c385e92e8887ddedc1094aec5345ab9638ec1a9f6e1baf",
			"e3aac2eeb34107dac1b3d1addaaafe68e252aaf9ae07a537ff42b1f05572e0dd",
			"1409f12d25856fa5c5c385e92e8887ddedc1094aec5345ab9638ec1a9f6e1baf",
			"27e44f7d7ef892c77eda5a8198f1022201246fb4f4967518537e6ae9427a1613",
			"1409f12d25856fa5c5c385e92e8887ddedc1094aec5345ab9638ec1a9f6e1baf",
			"27e44f7d7ef892c77eda5a8198f1022201246fb4f4967518537e6ae9427a1613",
		}},
		{unmanaged, 36, []string{
			"bd52ab7eced2588ac70cae06e88ac50b4b45aa5b6608d1e73f56a312699b13ad",
			"25d32794de46dbd6a9c57a6a0d519e495202afa2bd97d1e2a83209ab430fad0a",
			"bd52ab7eced2588ac70cae06e88ac50b4b45aa5b6608d1e73f56a312699b13ad",
			"6b22d5f73c925616c8bd0615428e8c8cf85734cb254a7b2983885723c92ae3e4",
			"bd52ab7eced2588ac70cae06e88ac50b4b45aa5b6608d1e73f56a312699b13ad",
			"6b22d5f73c925616c8bd0615428e8c8cf85734cb254a7b2983885723c92ae3e4",
		}},
	} {
		h, err := New(Options{Fleet: compileFleet(t, c.spec, c.inputs, 42)})
		if err != nil {
			t.Fatal(err)
		}
		tap := tapDecides(t, h)
		rep, err := h.Run(context.Background())
		h.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() || len(rep.Diverged) != 0 || rep.MatchedRounds != rep.Decides {
			t.Fatalf("%s: drill was not lossless:\n%s", c.spec.Name, rep.Summary())
		}
		for s := 0; s < c.spec.Streams; s++ {
			sum := sha256.Sum256([]byte(strings.Join(tap.seq[s], ";")))
			got := hex.EncodeToString(sum[:])
			if got != c.want[s] {
				t.Errorf("%s stream %d: decision digest %s, want %s", c.spec.Name, s, got, c.want[s])
			}
		}
	}
}

// decideTap records, per stream, the "model,cap" of every decide a node
// answered with 200 over HTTP/JSON.
type decideTap struct {
	next http.RoundTripper
	mu   sync.Mutex
	seq  map[int][]string
}

func (d *decideTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/decide" {
		return d.next.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body.Close()
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := d.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(out))
	var in struct {
		Stream int `json:"stream"`
	}
	var dec struct {
		Decision struct {
			Model int `json:"model"`
			Cap   int `json:"cap"`
		} `json:"decision"`
	}
	if err := json.Unmarshal(body, &in); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(out, &dec); err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.seq[in.Stream] = append(d.seq[in.Stream], fmt.Sprintf("%d,%d", dec.Decision.Model, dec.Decision.Cap))
	d.mu.Unlock()
	return resp, nil
}

// tapDecides swaps the harness's cluster router for one whose per-node
// clients run over a decideTap, with the retry budget the harness gives
// unmanaged drills (a shed request changes no decision, so the budget is
// harmless for managed ones).
func tapDecides(t *testing.T, h *Harness) *decideTap {
	t.Helper()
	tap := &decideTap{next: http.DefaultTransport, seq: make(map[int][]string)}
	addrs := make([]string, len(h.nodes))
	for i, n := range h.nodes {
		addrs[i] = n.addr
	}
	cl, err := cluster.New(addrs, client.Options{
		HTTPClient:  &http.Client{Transport: tap},
		MaxRetries:  8,
		BackoffSeed: h.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.cl.Close()
	h.cl = cl
	return tap
}
