package serve

import (
	"runtime"
	"testing"
	"time"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/sim"
)

// Pool-level benchmarks: the single-decide round trip (a recycled burst of
// one + the engine's scan) and the grouped batch dispatch (one channel
// operation per shard per batch).

// BenchmarkPoolDecide measures the submit→decide→reply round trip on one
// shard with the same spec and no feedback: a real scan of the candidate
// space per iteration plus the serving layer's own overhead.
func BenchmarkPoolDecide(b *testing.B) {
	pool := NewPool(testProfile(b), core.DefaultOptions(), 1)
	defer pool.Close()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	pool.Decide(0, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Decide(0, spec)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "decisions/s")
	}
}

// BenchmarkPoolDecideObserve is the paper's full per-input loop through the
// pool: decide, then feed back an observation that moves the filters.
func BenchmarkPoolDecideObserve(b *testing.B) {
	prof := testProfile(b)
	pool := NewPool(prof, core.DefaultOptions(), 1)
	defer pool.Close()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := pool.Decide(0, spec)
		pool.Observe(0, sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: prof.Caps[d.Cap]})
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "decisions/s")
	}
}

// liveHeap returns the live heap after a forced GC, the before/after probe
// for the bytes-per-stream measurements below.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkPoolManyStreams is the stream-table scaling benchmark: 10k
// streams served by one pool (one shared core.Engine, one core.State per
// stream) versus the naive construction the Engine/Session split replaced —
// one core.Engine per stream, each carrying its own copy of the
// candidate space. Both sides report the measured marginal heap cost per
// stream ("bytes/stream", engine amortized in), the stream creation rate
// ("streams/s"), and decide throughput across the stream population; the
// memory-reduction factor is the ratio of the two bytes/stream columns.
// The state's size is held by core.TestSessionFootprint.
func BenchmarkPoolManyStreams(b *testing.B) {
	const streams = 10000
	prof := testProfile(b)
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30}

	b.Run("shared-engine", func(b *testing.B) {
		before := liveHeap()
		start := time.Now()
		pool := newPool(prof, core.DefaultOptions(), 8, 256)
		defer pool.Close()
		// Touch every stream once so its session exists (create-on-first-use).
		for s := 0; s < streams; s++ {
			pool.Observe(s, out)
		}
		drain(pool)
		created := time.Since(start)
		perStream := float64(liveHeap()-before) / streams

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Decide(i%streams, spec)
		}
		b.StopTimer()
		b.ReportMetric(perStream, "bytes/stream")
		b.ReportMetric(streams/created.Seconds(), "streams/s")
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "decisions/s")
		}
	})

	b.Run("naive-controllers", func(b *testing.B) {
		before := liveHeap()
		start := time.Now()
		ctls := make([]*core.Session, streams)
		for s := range ctls {
			ctls[s] = core.NewEngine(prof, core.DefaultOptions()).NewSession()
			ctls[s].Observe(out)
		}
		created := time.Since(start)
		perStream := float64(liveHeap()-before) / streams

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctls[i%streams].Decide(spec)
		}
		b.StopTimer()
		b.ReportMetric(perStream, "bytes/stream")
		b.ReportMetric(streams/created.Seconds(), "streams/s")
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "decisions/s")
		}
		runtime.KeepAlive(ctls)
	})
}

// BenchmarkPoolDecideBatch measures grouped dispatch of a 64-decide burst
// over 8 shards (8 channel operations per burst instead of 64), the Burst
// reused the way every caller above the pool reuses its own.
func BenchmarkPoolDecideBatch(b *testing.B) {
	pool := newPool(testProfile(b), core.DefaultOptions(), 8, 256)
	defer pool.Close()
	spec := core.Spec{Objective: core.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
	burst := Burst{Ops: make([]Op, 64)}
	for i := range burst.Ops {
		burst.Ops[i] = Op{Stream: i, Spec: spec}
	}
	pool.Run(&burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Run(&burst)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*len(burst.Ops))/sec, "decisions/s")
	}
}
