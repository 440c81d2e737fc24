// Package serve is ALERT's concurrent serving layer. The paper's runtime
// serves one inference stream per controller (§3.6); production traffic is
// many independent streams, so the pool splits the controller the way
// internal/core does: one immutable core.Engine — the candidate space and
// its precomputed fast-path view, built once and shared by everything —
// and one 72-byte core.State per stream, held in a sharded stream table.
// Each shard is owned by exactly one worker goroutine that drains a private
// FIFO queue and multiplexes every stream pinned to it, supplying the
// engine and its one scan workspace to each call; per-stream cost is one
// allocation, an 80-byte pointer-free table entry embedding the stream's
// State (about 105–110 bytes with its map slot) that the garbage collector
// never scans, so the stream table scales to millions of streams on one
// engine.
//
// The sharding preserves the paper's semantics exactly, for every stream.
// A stream is pinned to a shard (stream mod N), its Decide/Observe requests
// are applied in submission order to its own session, and no session state
// is ever shared across streams — so every stream's decision sequence is
// byte-identical to running that stream against a lone session serially,
// no matter how many streams share its shard or how their traffic
// interleaves. Cross-shard throughput scales with cores because shards
// never contend on anything but the counters, which are atomic.
//
// The invariants, precisely:
//
//   - Per-stream FIFO: all submissions for one stream land on one shard's
//     queue and are applied in submission order. An Observe returns before
//     it is applied, but a later Decide on the same stream is ordered
//     behind it and therefore sees the updated filter state.
//   - Stream isolation: each stream has its own session (its own ξ and
//     idle-power filters, epoch, and decision count), created on the
//     stream's first Decide or Observe (XiEstimate is a pure read and
//     answers sessionless streams from the engine's prior). Streams never
//     affect each other's decisions —
//     whether they map to different shards or share one — so replays are
//     byte-exact at any shard count; the scheduling-dependent interleaving
//     of a shard's streams changes only service order, never decisions.
//   - Session lifecycle: sessions are created on first use and live until
//     EvictStream removes them, or an EvictIdle sweep reaps them for having
//     no traffic within its maxAge (an idle stream costs its session's
//     bytes until then; the Streams/SessionBytes gauges watch the table). A
//     stream that returns after eviction starts a fresh session at the
//     prior filter state, exactly like a new stream.
//   - Reads run on the owning worker: everything that is not a decide or
//     an observe — XiEstimate, Drain, the evictions, the stream listing,
//     export/checkpoint/import — is a closure enqueued like any task (on,
//     everyShard), so it observes a prefix-consistent session state and
//     never races with mutations.
//   - One decide path: a decide reaches a shard only inside a Burst. Run
//     hands each shard one group task carrying all of that shard's ops —
//     decides and observes — in the burst's order (one channel operation
//     per shard per burst), so a stream's ops apply exactly as if submitted
//     one by one, and a concurrent submission orders before or after the
//     whole group, never inside it. Op is the only record: the caller fills
//     it, the worker writes the decision into it in place, every layer above
//     reads it there. Decide is a burst of one drawn from the pool's free
//     list.
//   - Observe is the other path, and stays asynchronous on purpose: nobody
//     waits for an observe's result, so a lone one is a fire-and-forget
//     task. Making it a synchronous burst of one was measured and rejected —
//     on the repository benchmark's loop-json-batch workload it cost 6.6 %
//     loops_per_s (32.1–32.5k → 30.0–30.3k) and ~15 % decide_p95_us over
//     four alternating 10 s pairs, while routing lone decides through the
//     burst measured neutral (32.7–33.0k on both sides).
//   - Shards are workers, not locks, also on purpose. Two prototypes that
//     ran burst groups on the calling goroutine were measured and rejected
//     over 10 s alternating pairs on the repository benchmark. Making each
//     shard a mutex and running every group of the burst inline raised
//     loop-binwire's cpu_us_per_loop in 4 of 4 pairs, by a median of
//     19.7 % (6.0–6.6 → 7.1–7.8 µs); it cut serial-binwire-small's by a
//     median of 6 % (3 of 4 pairs better). Running only the burst's last
//     group inline, and the rest on the workers, moved loop-binwire's
//     cpu_us_per_loop by a median of −2.5 % over 10 pairs: noise.
//   - Backpressure, not shedding: a full queue blocks the submitter; the
//     pool never drops or reorders work.
//
// Steady-state Decide is allocation-free: its burst of one is recycled,
// tasks travel the shard channels by value, and a live stream's session is
// a map hit, so the only per-request work is the session's own (also
// allocation-free) decision. Only a stream's first request allocates — its
// table entry, state embedded.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
	"unsafe"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/sim"
)

// queueDepth is each shard's FIFO capacity. Submissions beyond it block
// until the worker catches up (backpressure).
const queueDepth = 64

type taskKind int

const (
	taskGroup taskKind = iota
	taskObserve
	taskRun
)

// Op is one element of a Burst and the one record of a request from the
// wire to the shard: a decide of Spec for Stream, whose Decision and
// Estimate the worker writes in place, or — when Observe is set — an
// observe of Out.
type Op struct {
	Stream   int
	Spec     core.Spec
	Observe  bool
	Out      sim.Outcome
	Decision sim.Decision
	Estimate core.Estimate
}

// Burst is a group of decides and observes that Run applies in slice order,
// as one task per shard. Fill Ops, Run, read the results out of Ops. The
// zero value is ready; reuse one (truncate Ops) and its scratch is allocated
// once. Not for concurrent Runs.
type Burst struct {
	Ops []Op

	// groups[si] lists, in order, the indices into Ops of shard si's ops:
	// one counting sort over idx per Run, no per-shard allocation. Shards
	// write disjoint Ops; wg.Wait is the reader's happens-before.
	groups []group
	idx    []int32
	wg     sync.WaitGroup
	start  time.Time
}

type group struct {
	b   *Burst
	idx []int32
	n   int // Run's count pass; zero between passes
}

// task is what travels a shard channel, by value, on every burst and lone
// observe — so it carries only what those need. Every other operation is a
// taskRun whose closure holds its own arguments and results.
type task struct {
	kind   taskKind
	group  *group       // group: one per shard per burst
	run    func(*shard) // taskRun: executed on the owning worker
	stream int          // observe
	out    sim.Outcome
	// at is an observe's submission time on the pool's clock, its
	// session's last-use time (a group reads its burst's).
	at time.Duration
}

// entry is one stream's slot in a shard's table: its state, embedded so a
// stream is one allocation, plus the submission time of the stream's
// latest traffic (Decide/Observe) on the pool's clock, the idle-eviction
// signal. Reads (XiEstimate) deliberately do not refresh lastUse —
// monitoring polls must not keep an abandoned stream alive. It holds no
// pointer (TestStreamEntryHasNoPointers), so the garbage collector places
// entries in its pointer-free spans and never scans them.
type entry struct {
	state   core.State
	lastUse time.Duration
}

// StreamBytes is the heap object one live stream costs its shard: the
// table entry embedding its state, the value the pool's SessionBytes gauge
// adds per stream. The table's map slot comes on top.
func StreamBytes() int { return int(unsafe.Sizeof(entry{})) }

// shard is one stream-table partition: the state of every stream pinned
// here, all driven by the one worker goroutine that owns this struct with
// the shared engine and one scan workspace — the streams are only ever
// used from this goroutine — so a shard's marginal cost per stream is just
// its entry.
type shard struct {
	eng      *core.Engine
	sessions map[int]*entry
	sc       *core.Scratch
	ch       chan task
	exited   chan struct{}
}

// state returns the stream's state, creating it on first use, and stamps
// the stream's last-use time with the task's submission time.
func (s *shard) state(stream int, at time.Duration, counters *metrics.ServeCounters) *core.State {
	e, ok := s.sessions[stream]
	if !ok {
		e = &entry{state: s.eng.NewState()}
		s.sessions[stream] = e
		counters.RecordSessionCreate(int64(StreamBytes()))
	}
	e.lastUse = at
	return &e.state
}

// Pool is a sharded stream table over one shared engine.
type Pool struct {
	eng      *core.Engine
	shards   []*shard
	counters *metrics.ServeCounters

	// clock supplies the submission timestamps that feed the latency
	// counters and the sessions' last-use times. It is time.Now in
	// production and swapped for a fake in the idle-eviction tests; it must
	// be set before any traffic and never changed afterwards.
	clock func() time.Time
	// epoch is the origin of the last-use times: an entry stores its
	// offset from here (see since), 8 bytes where a time.Time is 24.
	epoch time.Time

	// bursts is Decide's free list of bursts of one.
	bursts sync.Pool

	closeOnce sync.Once
}

// NewPool builds the shared engine once over a (read-only) profile table
// and starts the shard workers with empty stream tables. shards is the
// number of stream-table shards (and workers); values below 1 mean 1.
// Streams per shard are unbounded: shards bound only concurrency, not
// capacity.
func NewPool(prof *dnn.ProfileTable, opts core.Options, shards int) *Pool {
	return newPool(prof, opts, shards, queueDepth)
}

// newPool is NewPool with a per-shard queue depth other than queueDepth.
func newPool(prof *dnn.ProfileTable, opts core.Options, shards, depth int) *Pool {
	eng := core.NewEngine(prof, opts)
	p := &Pool{
		eng:      eng,
		shards:   make([]*shard, max(shards, 1)),
		counters: metrics.NewServeCounters(),
		clock:    time.Now,
		epoch:    time.Now(),
		bursts:   sync.Pool{New: func() any { return new(Burst) }},
	}
	for i := range p.shards {
		s := &shard{
			eng:      eng,
			sessions: make(map[int]*entry),
			sc:       eng.NewScratch(),
			ch:       make(chan task, depth),
			exited:   make(chan struct{}),
		}
		p.shards[i] = s
		go p.work(s)
	}
	return p
}

// since maps a clock reading onto the last-use timeline. Two readings
// compare by their offsets exactly as by Time.Before: both go through
// Time.Sub, which uses the monotonic clock when both carry it.
func (p *Pool) since(t time.Time) time.Duration { return t.Sub(p.epoch) }

func (p *Pool) work(s *shard) {
	defer close(s.exited)
	for t := range s.ch {
		switch t.kind {
		case taskGroup:
			b := t.group.b
			// Queue delay — submit to pickup — is the pool's share of the
			// decide latency; the admission controller reads it off stats.
			p.counters.RecordQueueWait(time.Since(b.start))
			at := p.since(b.start)
			observes := 0
			for _, i := range t.group.idx {
				op := &b.Ops[i]
				st := s.state(op.Stream, at, p.counters)
				if op.Observe {
					s.eng.Observe(st, op.Out)
					observes++
					continue
				}
				op.Decision, op.Estimate = s.eng.Decide(s.sc, st, op.Spec)
			}
			// One clock read and one update per counter per group: its
			// decides reach the caller together, when the burst completes.
			if decides := len(t.group.idx) - observes; decides > 0 {
				p.counters.RecordDecides(decides, time.Since(b.start))
			}
			if observes > 0 {
				p.counters.RecordObserves(observes)
			}
			p.counters.RecordScan(s.sc.TakeScanCounts())
			// Counters record before Done unblocks the caller, so a Stats
			// read that follows a completed Decide always sees it.
			b.wg.Done()
		case taskObserve:
			s.eng.Observe(s.state(t.stream, t.at, p.counters), t.out)
			p.counters.RecordObserves(1)
		case taskRun:
			t.run(s)
		}
	}
}

// on enqueues fn on s's worker — the same FIFO position any task gets, so
// fn sees every Decide/Observe submitted to the shard before it applied and
// runs alone with the shard's sessions — and returns a channel the worker
// closes after fn returns. Results ride fn's captured variables; the close
// is the happens-before that publishes them to the receiver.
func on(s *shard, fn func(*shard)) <-chan struct{} {
	done := make(chan struct{})
	s.ch <- task{kind: taskRun, run: func(s *shard) {
		fn(s)
		close(done)
	}}
	return done
}

// everyShard runs fn(i, shard i) on every worker, enqueueing on every shard
// before waiting on any, and returns once all have run.
func (p *Pool) everyShard(fn func(i int, s *shard)) {
	done := make([]<-chan struct{}, len(p.shards))
	for i, s := range p.shards {
		i := i
		done[i] = on(s, func(s *shard) { fn(i, s) })
	}
	for _, d := range done {
		<-d
	}
}

// drop removes the stream's session, if it has one, from s (on s's worker).
func (p *Pool) drop(s *shard, stream int) {
	if _, ok := s.sessions[stream]; ok {
		delete(s.sessions, stream)
		p.counters.RecordSessionEvict(int64(StreamBytes()))
	}
}

// NumShards returns the stream-table shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// NumStreams returns the live session count across all shards.
func (p *Pool) NumStreams() int { return int(p.counters.Snapshot().Streams) }

// Counters exposes the pool's throughput/latency counters and stream-table
// gauges.
func (p *Pool) Counters() *metrics.ServeCounters { return p.counters }

// shardIndex maps a stream id onto a shard slot.
func (p *Pool) shardIndex(stream int) int {
	i := stream % len(p.shards)
	if i < 0 {
		i += len(p.shards)
	}
	return i
}

// shardFor pins a stream to a shard.
func (p *Pool) shardFor(stream int) *shard {
	return p.shards[p.shardIndex(stream)]
}

// Decide routes the spec to the stream's shard and blocks for the decision,
// creating the stream's session on first use. Requests submitted to one
// shard are served in submission order. It is a burst of one; the burst
// comes from the pool's free list, so the steady-state round trip is
// allocation-free.
func (p *Pool) Decide(stream int, spec core.Spec) (sim.Decision, core.Estimate) {
	b := p.bursts.Get().(*Burst)
	b.Ops = append(b.Ops[:0], Op{Stream: stream, Spec: spec})
	p.dispatch(b)
	d, est := b.Ops[0].Decision, b.Ops[0].Estimate
	p.bursts.Put(b)
	return d, est
}

// Observe enqueues a measurement for the stream's session and returns
// without waiting for it to be applied. It is still FIFO-ordered behind
// every earlier submission for that shard, so a subsequent Decide on the
// same stream sees the updated filter state.
func (p *Pool) Observe(stream int, out sim.Outcome) {
	p.shardFor(stream).ch <- task{kind: taskObserve, stream: stream, out: out, at: p.since(p.clock())}
}

// EvictStream removes the stream's session from the table, releasing its
// memory, and blocks until the eviction is applied (so a sequential
// create→evict→read sequence observes the table shrink). Evicting an
// unknown stream is a no-op. Traffic already queued behind the eviction —
// or arriving later — recreates the session from the initial filter state,
// exactly like a brand-new stream.
func (p *Pool) EvictStream(stream int) {
	<-on(p.shardFor(stream), func(s *shard) { p.drop(s, stream) })
}

// EvictIdle reaps every session whose last traffic (Decide or Observe —
// pure reads like XiEstimate do not count) is older than maxAge, returning
// how many it evicted. Long-lived servers run it periodically so abandoned
// streams cannot grow the table forever. The sweep is one task per shard,
// ordered like any other submission: traffic already queued behind it
// refreshes (or recreates) its stream afterwards, and an active stream —
// one whose last use is within maxAge — is never touched. It blocks until
// every shard has swept.
func (p *Pool) EvictIdle(maxAge time.Duration) int {
	cutoff := p.since(p.clock().Add(-maxAge))
	evicted := make([]int, len(p.shards))
	p.everyShard(func(i int, s *shard) {
		for stream, e := range s.sessions {
			if e.lastUse < cutoff {
				p.drop(s, stream)
				evicted[i]++
			}
		}
	})
	total := 0
	for _, n := range evicted {
		total += n
	}
	return total
}

// StreamIDs returns the ids of every live session, sorted ascending. Each
// shard reports its slice of the table from its own worker (so the listing
// is ordered behind everything submitted before the call); the table can of
// course change as soon as the snapshot returns.
func (p *Pool) StreamIDs() []int {
	parts := make([][]int, len(p.shards))
	p.everyShard(func(i int, s *shard) {
		ids := make([]int, 0, len(s.sessions))
		for stream := range s.sessions {
			ids = append(ids, stream)
		}
		parts[i] = ids
	})
	var all []int
	for _, ids := range parts {
		all = append(all, ids...)
	}
	sort.Ints(all)
	return all
}

// Run applies the burst's ops, results written into b.Ops in place, and
// blocks until every one is done. Each shard receives one task carrying all
// of its ops (one channel operation per shard per burst, not per op) and
// applies them in slice order on its worker — atomically with respect to
// other submissions to that shard; shards run concurrently.
func (p *Pool) Run(b *Burst) {
	if len(b.Ops) == 0 {
		return
	}
	p.counters.RecordBatch()
	p.dispatch(b)
}

// dispatch is Run without the batch count (Decide's burst of one is not a
// grouped dispatch to anyone watching the counters).
func (p *Pool) dispatch(b *Burst) {
	if b.groups == nil {
		b.groups = make([]group, len(p.shards))
	}
	if cap(b.idx) < len(b.Ops) {
		b.idx = make([]int32, cap(b.Ops))
	}
	// Counting sort by shard: size each group, carve b.idx, fill in order.
	for i := range b.Ops {
		b.groups[p.shardIndex(b.Ops[i].Stream)].n++
	}
	off := 0
	for si := range b.groups {
		g := &b.groups[si]
		g.b, g.idx = b, b.idx[off:off:off+g.n]
		off, g.n = off+g.n, 0
	}
	for i := range b.Ops {
		g := &b.groups[p.shardIndex(b.Ops[i].Stream)]
		g.idx = append(g.idx, int32(i))
	}
	b.start = p.clock()
	for si := range b.groups {
		if g := &b.groups[si]; len(g.idx) > 0 {
			b.wg.Add(1)
			p.shards[si].ch <- task{kind: taskGroup, group: g}
		}
	}
	b.wg.Wait()
}

// ExportStream drains the stream's pending traffic, snapshots its session,
// and atomically removes it from the table — the send side of a live
// migration (or a crash-consistent backup of one stream). The three steps
// are one task on the owning worker: per-stream FIFO ordering guarantees
// every Decide/Observe submitted before the export is folded into the
// snapshot, and nothing can slip between the snapshot and the removal. The
// second return is false if the stream had no live session (nothing to
// ship — the stream can simply start fresh elsewhere, exactly as if idle
// eviction had reaped it).
//
// Traffic submitted after the export recreates the stream from the initial
// filter state, exactly like EvictStream; callers migrating a stream stop
// routing to it first.
func (p *Pool) ExportStream(stream int) (core.SessionSnapshot, bool) {
	return p.snapshot(stream, true)
}

// SnapshotStream checkpoints the stream's session without removing it —
// the periodic-backup primitive behind crash recovery: a node that dies
// without a graceful export restarts from its streams' last checkpoints.
// Like ExportStream the snapshot runs as one task on the owning worker, so
// it folds in every Decide/Observe submitted before the call; unlike
// ExportStream the session stays live and keeps serving. It is a pure read:
// it does not refresh the stream's last-use time, so periodic checkpoints
// never keep an idle stream alive. The second return is false if the stream
// has no live session.
func (p *Pool) SnapshotStream(stream int) (core.SessionSnapshot, bool) {
	return p.snapshot(stream, false)
}

// snapshot is export (remove) and checkpoint (!remove): one closure on the
// owning worker, so the queue IS the drain and nothing can touch the
// session between the snapshot and the delete.
func (p *Pool) snapshot(stream int, remove bool) (snap core.SessionSnapshot, ok bool) {
	<-on(p.shardFor(stream), func(s *shard) {
		e, live := s.sessions[stream]
		if !live {
			return
		}
		snap, ok = e.state.Snapshot(), true
		if remove {
			p.drop(s, stream)
			p.counters.RecordStreamExport()
		}
	})
	return snap, ok
}

// ImportStream restores a snapshotted session into the table under the
// given stream id — the receive side of a migration. The restore runs on
// the owning worker ordered like any task, so traffic for the stream
// submitted after ImportStream returns is served by the restored session,
// continuing the exported stream's decision sequence bit-for-bit. It
// refuses a stream that already has a live session (the caller is
// migrating onto a stale target) and snapshots that fail validation.
func (p *Pool) ImportStream(stream int, snap core.SessionSnapshot) (err error) {
	at := p.since(p.clock())
	<-on(p.shardFor(stream), func(s *shard) {
		// An already-live stream refuses the import: silently replacing a
		// session that is actively deciding would fork its decision
		// sequence, which is exactly what migration exists to prevent.
		if _, live := s.sessions[stream]; live {
			err = fmt.Errorf("serve: stream %d already live, refusing import", stream)
			return
		}
		if err = snap.Validate(); err != nil {
			return
		}
		s.sessions[stream] = &entry{state: snap.State, lastUse: at}
		p.counters.RecordSessionCreate(int64(StreamBytes()))
		p.counters.RecordStreamImport()
	})
	return err
}

// XiEstimate reports the (mean, std) of the stream's slowdown filter,
// ordered after everything submitted to that stream's shard before the
// call. It is a pure read: a stream with no live session is answered from
// the engine's prior without creating one, so polling unknown or evicted
// streams never grows the table.
func (p *Pool) XiEstimate(stream int) (mu, sigma float64) {
	<-on(p.shardFor(stream), func(s *shard) {
		if e, ok := s.sessions[stream]; ok {
			mu, sigma = e.state.Xi.Mu, e.state.Xi.Std()
		} else {
			mu, sigma = s.eng.XiPrior()
		}
	})
	return mu, sigma
}

// Close drains and stops every worker. The pool must not be used after
// Close; submissions concurrent with Close are the caller's race.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		for _, s := range p.shards {
			close(s.ch)
		}
		for _, s := range p.shards {
			<-s.exited
		}
	})
}
