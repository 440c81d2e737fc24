package serve

import (
	"sync"
	"testing"

	"github.com/alert-project/alert/internal/core"
)

// TestExportImportMatchesSerial is the migration differential test at the
// stream-table layer: replay a stream's script half on pool A, migrate the
// session (ExportStream → ImportStream) to pool B, replay the second half
// there — the stitched decision sequence must be byte-identical to a lone
// session serving the whole script, i.e. the hand-off is invisible.
func TestExportImportMatchesSerial(t *testing.T) {
	prof := testProfile(t)
	const stream, n = 7, 120
	steps := script(stream, n)
	want := serialRun(prof, steps)

	a := NewPool(prof, core.DefaultOptions(), Config{Shards: 2})
	defer a.Close()
	b := NewPool(prof, core.DefaultOptions(), Config{Shards: 3})
	defer b.Close()

	for i := 0; i < n/2; i++ {
		d, _ := a.Decide(stream, steps[i].spec)
		if d != want[i] {
			t.Fatalf("pre-migration step %d: decision %+v, want %+v", i, d, want[i])
		}
		a.Observe(stream, outcomeFor(prof, d, steps[i].xi))
	}

	snap, ok := a.ExportStream(stream)
	if !ok {
		t.Fatal("ExportStream found no session for a live stream")
	}
	if err := b.ImportStream(stream, snap); err != nil {
		t.Fatal(err)
	}

	for i := n / 2; i < n; i++ {
		d, _ := b.Decide(stream, steps[i].spec)
		if d != want[i] {
			t.Fatalf("post-migration step %d: decision %+v, want %+v", i, d, want[i])
		}
		b.Observe(stream, outcomeFor(prof, d, steps[i].xi))
	}

	// Migration bookkeeping: the exporter no longer owns the stream, the
	// importer does, and the counters record one export / one import.
	if ids := a.StreamIDs(); len(ids) != 0 {
		t.Errorf("exporter still owns streams %v", ids)
	}
	if ids := b.StreamIDs(); len(ids) != 1 || ids[0] != stream {
		t.Errorf("importer stream table = %v, want [%d]", ids, stream)
	}
	if s := a.Counters().Snapshot(); s.StreamExports != 1 || s.Streams != 0 || s.SessionBytes != 0 {
		t.Errorf("exporter counters: exports=%d streams=%d bytes=%d, want 1/0/0", s.StreamExports, s.Streams, s.SessionBytes)
	}
	if s := b.Counters().Snapshot(); s.StreamImports != 1 || s.Streams != 1 {
		t.Errorf("importer counters: imports=%d streams=%d, want 1/1", s.StreamImports, s.Streams)
	}
}

// TestExportDrainsQueuedTraffic: Observes already submitted (but possibly
// not yet applied) when ExportStream is called must be folded into the
// snapshot — the per-stream FIFO is the drain.
func TestExportDrainsQueuedTraffic(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), Config{Shards: 1, QueueDepth: 256})
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d, _ := pool.Decide(3, spec)
	const observes = 100
	for i := 0; i < observes; i++ {
		pool.Observe(3, outcomeFor(prof, d, 1.2)) // async: returns before applied
	}
	snap, ok := pool.ExportStream(3)
	if !ok {
		t.Fatal("no session exported")
	}
	// Epoch = observe count + 1; every queued Observe must be in the state.
	if snap.Epoch != observes+1 {
		t.Fatalf("snapshot epoch %d, want %d (export ran before the queue drained)", snap.Epoch, observes+1)
	}
	if snap.Decisions != 1 {
		t.Fatalf("snapshot decisions %d, want 1", snap.Decisions)
	}
}

// TestExportUnknownStream: exporting a stream with no session reports
// ok=false (nothing to ship) and moves no gauges.
func TestExportUnknownStream(t *testing.T) {
	pool := NewPool(testProfile(t), core.DefaultOptions(), Config{Shards: 2})
	defer pool.Close()
	if _, ok := pool.ExportStream(42); ok {
		t.Error("ExportStream invented a session for an unknown stream")
	}
	if s := pool.Counters().Snapshot(); s.StreamExports != 0 || s.Streams != 0 {
		t.Errorf("counters moved on a no-op export: %+v", s)
	}
}

// TestImportRefusals: importing onto a live stream and importing an invalid
// snapshot both error without disturbing the table.
func TestImportRefusals(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), Config{Shards: 2})
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	pool.Decide(5, spec)
	mu0, _ := pool.XiEstimate(5)

	donor := pool.Engine().NewSession()
	snap := donor.Snapshot()
	if err := pool.ImportStream(5, snap); err == nil {
		t.Error("ImportStream replaced a live session")
	}
	if mu, _ := pool.XiEstimate(5); mu != mu0 {
		t.Error("refused import perturbed the live session")
	}

	bad := snap
	bad.Epoch = 0
	if err := pool.ImportStream(6, bad); err == nil {
		t.Error("ImportStream accepted an invalid snapshot")
	}
	if ids := pool.StreamIDs(); len(ids) != 1 || ids[0] != 5 {
		t.Errorf("stream table = %v after refused imports, want [5]", ids)
	}
	if s := pool.Counters().Snapshot(); s.StreamImports != 0 {
		t.Errorf("imports counter = %d after refusals, want 0", s.StreamImports)
	}
}

// TestExportImportConcurrentWithTraffic is the migration race test: a hot
// stream is bounced between two pools by one goroutine while others throw
// Decide/Observe/DecideBatch/EvictStream traffic at both pools. Under
// -race this pins memory safety; the assertions pin that every batch result
// is a real decision and the stream-table gauges balance afterwards.
func TestExportImportConcurrentWithTraffic(t *testing.T) {
	prof := testProfile(t)
	a := NewPool(prof, core.DefaultOptions(), Config{Shards: 2, QueueDepth: 64})
	defer a.Close()
	b := NewPool(prof, core.DefaultOptions(), Config{Shards: 2, QueueDepth: 64})
	defer b.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const (
		hot    = 0
		rounds = 150
	)
	var wg sync.WaitGroup

	// Migrator: bounce the hot stream a→b→a. Failed legs are fine (the
	// stream may have no session, or the target may have recreated one);
	// what matters is that no interleaving corrupts either table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			src, dst := a, b
			if i%2 == 1 {
				src, dst = b, a
			}
			if snap, ok := src.ExportStream(hot); ok {
				_ = dst.ImportStream(hot, snap)
			}
		}
	}()

	// Traffic on both pools: batches touching the hot stream plus
	// bystanders, singles, observes, and evictions.
	for _, pool := range []*Pool{a, b} {
		pool := pool
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := []Op{{Stream: hot, Spec: spec}, {Stream: 1, Spec: spec}, {Stream: hot, Spec: spec}}
			for i := 0; i < rounds; i++ {
				for j, r := range runBurst(pool, reqs) {
					if r.Estimate.LatMean <= 0 {
						t.Errorf("round %d result %d lost: %+v", i, j, r)
						return
					}
				}
				d, _ := pool.Decide(hot, spec)
				pool.Observe(hot, outcomeFor(prof, d, 1.1))
				if i%10 == 9 {
					pool.EvictStream(hot)
				}
			}
		}()
	}

	wg.Wait()
	for name, pool := range map[string]*Pool{"a": a, "b": b} {
		pool.Drain()
		s := pool.Counters().Snapshot()
		if want := int64(len(pool.StreamIDs())); s.Streams != want {
			t.Errorf("pool %s: Streams gauge = %d, want %d", name, s.Streams, want)
		}
		if want := s.Streams * int64(core.SessionBytes()); s.SessionBytes != want {
			t.Errorf("pool %s: SessionBytes gauge = %d, want %d", name, s.SessionBytes, want)
		}
	}
}
