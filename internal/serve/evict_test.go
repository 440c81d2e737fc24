package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/sim"
)

// fakeClock is a race-safe manual clock for the idle-eviction tests: the
// pool's workers read it concurrently with the test advancing it.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestEvictIdle: sessions idle longer than maxAge are reaped, active ones
// survive with their filter state intact, and the stream-table gauges stay
// balanced through the sweep.
func TestEvictIdle(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), Config{Shards: 2})
	defer pool.Close()
	fc := &fakeClock{}
	pool.clock = fc.now // before any traffic; workers sync via the task channel

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	for stream := 0; stream < 5; stream++ {
		pool.Decide(stream, spec)
	}

	// Make stream 1's filter state distinguishable from a fresh session, so
	// surviving a sweep provably preserves state rather than recreating it.
	d, _ := pool.Decide(1, spec)
	for i := 0; i < 20; i++ {
		pool.Observe(1, outcomeFor(prof, d, 2.0))
	}
	muBefore, _ := pool.XiEstimate(1)
	if muBefore <= 1.0 {
		t.Fatalf("xi mean %.3f after heavy feedback, want > 1.0", muBefore)
	}

	// Streams 0 and 1 stay active past the cutoff; 2, 3, 4 go idle.
	fc.advance(time.Minute)
	pool.Decide(0, spec)
	pool.Observe(1, outcomeFor(prof, d, 2.0))

	if n := pool.EvictIdle(30 * time.Second); n != 3 {
		t.Fatalf("EvictIdle evicted %d sessions, want 3", n)
	}
	if got := pool.StreamIDs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("StreamIDs after sweep = %v, want [0 1]", got)
	}
	snap := pool.Counters().Snapshot()
	if snap.Streams != 2 {
		t.Errorf("Streams gauge = %d after sweep, want 2", snap.Streams)
	}
	if want := snap.Streams * int64(core.SessionBytes()); snap.SessionBytes != want {
		t.Errorf("SessionBytes gauge = %d, want %d (streams × session size)", snap.SessionBytes, want)
	}

	// The surviving session kept its state; the evicted one reads back at
	// the prior without re-materializing.
	if mu, _ := pool.XiEstimate(1); mu <= 1.0 {
		t.Errorf("survivor xi mean = %.3f, want the evolved estimate (> 1.0)", mu)
	}
	if mu, _ := pool.XiEstimate(3); mu != 1.0 {
		t.Errorf("evicted stream xi mean = %.3f, want the 1.0 prior", mu)
	}
	if n := pool.NumStreams(); n != 2 {
		t.Errorf("NumStreams = %d after post-sweep reads, want 2 (reads must not create sessions)", n)
	}

	// A sweep with nothing idle is a no-op; one far in the future reaps the
	// rest and the gauges return to zero.
	if n := pool.EvictIdle(30 * time.Second); n != 0 {
		t.Errorf("second sweep evicted %d, want 0", n)
	}
	fc.advance(time.Hour)
	if n := pool.EvictIdle(30 * time.Second); n != 2 {
		t.Errorf("final sweep evicted %d, want 2", n)
	}
	if snap := pool.Counters().Snapshot(); snap.Streams != 0 || snap.SessionBytes != 0 {
		t.Errorf("gauges after full sweep = streams %d bytes %d, want 0/0", snap.Streams, snap.SessionBytes)
	}
}

// TestEvictIdleReadsDoNotRefresh: XiEstimate is a pure read, so polling a
// stream must not shield it from an idle sweep.
func TestEvictIdleReadsDoNotRefresh(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), Config{Shards: 1})
	defer pool.Close()
	fc := &fakeClock{}
	pool.clock = fc.now

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	pool.Decide(7, spec)
	fc.advance(time.Minute)
	pool.XiEstimate(7) // monitoring poll, not traffic
	if n := pool.EvictIdle(30 * time.Second); n != 1 {
		t.Errorf("EvictIdle evicted %d, want 1 (a read refreshed last-use)", n)
	}
}

// TestEvictStreamConcurrentWithDecideBatch is the stream-eviction race
// test: DecideBatch groups in flight on a stream while another goroutine
// evicts that same stream. Run under -race this pins memory safety; the
// assertions pin that no batch result is ever lost (every slot of every
// batch is a real decision — eviction between two of a shard's group
// decisions is impossible, and eviction between groups just means the next
// group recreates the session) and that the gauges balance afterwards.
func TestEvictStreamConcurrentWithDecideBatch(t *testing.T) {
	prof := testProfile(t)
	pool := NewPool(prof, core.DefaultOptions(), Config{Shards: 2, QueueDepth: 64})
	defer pool.Close()

	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	const (
		hot     = 0 // the contested stream: batched against, evicted, observed
		batches = 150
	)
	var wg sync.WaitGroup

	// Batcher: every batch hits the hot stream (twice, so batch order within
	// the stream matters) plus two bystanders on the other shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := []Op{{Stream: hot, Spec: spec}, {Stream: 1, Spec: spec},
			{Stream: hot, Spec: spec}, {Stream: 3, Spec: spec}}
		for i := 0; i < batches; i++ {
			res := runBurst(pool, reqs)
			if len(res) != len(reqs) {
				t.Errorf("batch %d: %d results for %d requests", i, len(res), len(reqs))
				return
			}
			for j, r := range res {
				// A lost slot would be the zero Result; real decisions
				// always predict a positive mean latency.
				if r.Estimate.LatMean <= 0 {
					t.Errorf("batch %d result %d lost: %+v", i, j, r)
					return
				}
				if r.Decision.Model < 0 || r.Decision.Model >= len(prof.Models) {
					t.Errorf("batch %d result %d: model %d out of range", i, j, r.Decision.Model)
					return
				}
			}
		}
	}()

	// Evictor: hammers the hot stream's shard with evictions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			pool.EvictStream(hot)
		}
	}()

	// Feedback: concurrent observes on the hot stream, interleaving with
	// both the groups and the evictions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := outcomeFor(prof, sim.Decision{}, 1.1)
		for i := 0; i < batches; i++ {
			pool.Observe(hot, out)
		}
	}()

	wg.Wait()
	pool.Drain()
	snap := pool.Counters().Snapshot()
	if want := int64(len(pool.StreamIDs())); snap.Streams != want {
		t.Errorf("Streams gauge = %d, want %d (live table entries)", snap.Streams, want)
	}
	if want := snap.Streams * int64(core.SessionBytes()); snap.SessionBytes != want {
		t.Errorf("SessionBytes gauge = %d, want %d", snap.SessionBytes, want)
	}
	if snap.Decisions != int64(batches*4) {
		t.Errorf("Decisions counter = %d, want %d (no lost batch work)", snap.Decisions, batches*4)
	}
	if snap.Observes != int64(batches) {
		t.Errorf("Observes counter = %d, want %d", snap.Observes, batches)
	}
}
