package netserve_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/netserve"
)

// startNode stands up a front end with both listeners over a fresh
// alert.Server and returns its HTTP base URL and a client whose per-input
// loop rides binwire.
func startNode(t *testing.T, shards int, nodeID string) (string, *client.Client) {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fe := netserve.New(srv, netserve.Config{NodeID: nodeID})
	ts := httptest.NewServer(fe)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := netserve.NewBinary(fe, ln, netserve.BinaryConfig{})
	go bs.Serve()
	t.Cleanup(func() { bs.Close() })
	c, err := client.New(ts.URL, client.Options{BinaryAddr: bs.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return ts.URL, c
}

func blobOf(t *testing.T, snap alert.SessionSnapshot) []byte {
	t.Helper()
	blob, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestMigrationOverHTTP is the wire-level migration differential test,
// driven the way a binwire cluster client migrates: the per-input loop on
// binwire, the snapshot ops on HTTP. Drive a stream against node A,
// checkpoint and export it (the same session, the same bytes), import it
// into node B, continue the traffic on B — and require the stitched
// decision sequence to be bit-identical to one in-process alert.Server
// serving the whole sequence.
func TestMigrationOverHTTP(t *testing.T) {
	_, nodeA := startNode(t, 2, "a")
	urlB, nodeB := startNode(t, 3, "b")
	solo, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(solo.Close)
	ctx := context.Background()

	const stream, n = 11, 60
	step := func(c *client.Client, i int) {
		t.Helper()
		spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.1 + 0.002*float64(i), AccuracyGoal: 0.9}
		d, est, err := c.Decide(ctx, stream, spec)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		sd, sest := solo.Decide(stream, spec)
		if d != sd {
			t.Fatalf("step %d: %+v, want %+v", i, d, sd)
		}
		if err := c.Observe(ctx, stream, alert.Feedback{Decision: d, Latency: est.LatMean * 1.07, CompletedStage: -1, IdlePowerW: 4}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		solo.Observe(stream, alert.Feedback{Decision: sd, Latency: sest.LatMean * 1.07, CompletedStage: -1, IdlePowerW: 4})
	}
	for i := 0; i < n/2; i++ {
		step(nodeA, i)
	}

	checkpointed, err := nodeA.CheckpointStream(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	exported, err := nodeA.ExportStream(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	blob := blobOf(t, exported)
	if !bytes.Equal(blobOf(t, checkpointed), blob) {
		t.Error("checkpoint and export of the same session produced different blobs")
	}
	// Export removed the session: a second export finds nothing.
	if _, err := nodeA.ExportStream(ctx, stream); !errors.Is(err, client.ErrNoSession) {
		t.Fatalf("re-export = %v, want ErrNoSession", err)
	}
	if err := nodeB.ImportStream(ctx, stream, exported); err != nil {
		t.Fatal(err)
	}
	restored, err := nodeB.CheckpointStream(ctx, stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobOf(t, restored), blob) {
		t.Error("imported session re-marshals to different bytes than the export")
	}
	// The same read as raw JSON: stream id, snapshot format version, blob.
	resp, err := http.Get(fmt.Sprintf("%s/v1/streams/%d/checkpoint", urlB, stream))
	if err != nil {
		t.Fatal(err)
	}
	var raw netserve.SnapshotResponse
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || raw.Stream != stream || raw.Version != 1 ||
		raw.SnapshotB64 != base64.StdEncoding.EncodeToString(blob) {
		t.Fatalf("checkpoint reply %d %+v (%v)", resp.StatusCode, raw, err)
	}

	for i := n / 2; i < n; i++ {
		step(nodeB, i)
	}

	// The nodes' stats carry their identities and the migration, which rode
	// HTTP while the loop rode binwire.
	statsA, err := nodeA.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := nodeB.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsA.NodeID != "a" || statsB.NodeID != "b" {
		t.Errorf("node ids = %q/%q, want a/b", statsA.NodeID, statsB.NodeID)
	}
	if statsA.Net.Exports != 1 || statsA.Net.Checkpoints != 1 || statsA.Serve.StreamExports != 1 || statsA.Streams != 0 {
		t.Errorf("node a after export: net.exports=%d net.checkpoints=%d serve.exports=%d streams=%d, want 1/1/1/0",
			statsA.Net.Exports, statsA.Net.Checkpoints, statsA.Serve.StreamExports, statsA.Streams)
	}
	if statsB.Net.Imports != 1 || statsB.Serve.StreamImports != 1 || statsB.Streams != 1 {
		t.Errorf("node b after import: net.imports=%d serve.imports=%d streams=%d, want 1/1/1",
			statsB.Net.Imports, statsB.Serve.StreamImports, statsB.Streams)
	}
	for name, st := range map[string]netserve.StatsResponse{"a": statsA, "b": statsB} {
		if st.Bin == nil || st.Bin.Decides != n/2 || st.Net.Decides != 0 {
			t.Errorf("node %s: loop not on binwire: bin %+v, http decides %d", name, st.Bin, st.Net.Decides)
		} else if st.Bin.Exports+st.Bin.Checkpoints+st.Bin.Imports+st.Bin.Evictions != 0 {
			t.Errorf("node %s: stream ops counted on binwire: %+v", name, st.Bin.TransportSnapshot)
		}
	}
}
