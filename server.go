package alert

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/serve"
	"github.com/alert-project/alert/internal/sim"
)

// Server is the concurrent front-end over the ALERT runtime: one shared
// immutable decision engine plus a sharded stream table holding a
// lightweight session — the stream's own Kalman filter state, under 200
// bytes — for every inference stream. A Scheduler
// serves one stream (§3.6); a Server serves any number by pinning each
// stream id to one of N shards and applying that stream's Decide/Observe
// traffic to its session in submission order. Per-stream behaviour is
// identical to a dedicated Scheduler — regardless of how many streams share
// a shard — while aggregate throughput scales with shards and per-stream
// memory stays flat enough for millions of streams.
//
// Sessions are created on a stream's first request and live until
// EvictStream releases them; Stats reports the live stream count and the
// table's aggregate session bytes.
//
// All methods are safe for concurrent use by any number of goroutines.
type Server struct {
	prof *dnn.ProfileTable
	pool *serve.Pool
	// bursts recycles the bursts DecideBatch runs its batches as.
	bursts sync.Pool
}

// ServerOptions configure a Server. The zero value profiles with the
// paper's defaults and uses one shard per CPU.
type ServerOptions struct {
	// Shards is the number of stream-table shards (worker goroutines);
	// 0 means GOMAXPROCS. Shards bound concurrency, not stream capacity.
	Shards int
	// Scheduler options, resolved once into the server's shared decision
	// engine (every stream's session decides against the same engine).
	Options Options
}

// NewServer profiles the candidate models once and starts the shard pool.
// Callers should Close the server to stop its workers.
func NewServer(p *Platform, models []*Model, opts ServerOptions) (*Server, error) {
	prof, err := dnn.Profile(p, models)
	if err != nil {
		return nil, fmt.Errorf("alert: %w", err)
	}
	o, err := coreOptions(opts.Options)
	if err != nil {
		return nil, err
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &Server{prof: prof, pool: serve.NewPool(prof, o, serve.Config{Shards: shards})}
	s.bursts.New = func() any { return s.NewBurst() }
	return s, nil
}

// Shards returns the stream-table shard count.
func (s *Server) Shards() int { return s.pool.NumShards() }

// Streams returns the number of live per-stream sessions in the table.
func (s *Server) Streams() int { return s.pool.NumStreams() }

// EvictStream releases the stream's session, returning once the table has
// shrunk. Use it to bound memory when streams are short-lived: an idle
// stream otherwise keeps its few-hundred-byte session alive indefinitely.
// A stream that returns after eviction starts fresh from the initial filter
// state, exactly like a new stream.
func (s *Server) EvictStream(stream int) { s.pool.EvictStream(stream) }

// EvictIdle releases every session whose last Decide or Observe is older
// than maxAge and reports how many it evicted. Long-lived servers call it
// periodically (cmd/alertserve's -idle-evict flag does) so abandoned
// streams cannot grow the table forever; streams with traffic within
// maxAge are never touched.
func (s *Server) EvictIdle(maxAge time.Duration) int { return s.pool.EvictIdle(maxAge) }

// StreamIDs returns the ids of every live session, sorted ascending.
func (s *Server) StreamIDs() []int { return s.pool.StreamIDs() }

// SessionSnapshot is the serializable state of one stream's session: a
// flat, versioned value with a canonical binary encoding
// (MarshalBinary/UnmarshalBinary), the unit of stream migration and crash
// recovery. See internal/core for the format contract.
type SessionSnapshot = core.SessionSnapshot

// ExportStream drains the stream's pending traffic, snapshots its session,
// and atomically removes it from the table — the send side of a live
// migration. The second return is false when the stream has no session
// (nothing to ship; the stream can start fresh elsewhere). Traffic arriving
// after the export recreates the stream from the initial filter state, so
// callers migrating a stream stop routing to this server first.
func (s *Server) ExportStream(stream int) (SessionSnapshot, bool) {
	return s.pool.ExportStream(stream)
}

// SnapshotStream checkpoints the stream's session without removing it —
// the periodic-backup primitive behind crash recovery: a node that dies
// without a graceful export restarts its streams from their last
// checkpoints. The snapshot folds in everything submitted before the call,
// the session keeps serving, and the stream's idle-eviction clock is not
// refreshed. The second return is false when the stream has no session.
func (s *Server) SnapshotStream(stream int) (SessionSnapshot, bool) {
	return s.pool.SnapshotStream(stream)
}

// ImportStream restores an exported session under the given stream id — the
// receive side of a migration. The restored session continues the exported
// stream's decision sequence bit-for-bit, provided both servers were built
// from the same platform, candidate set, and options (callers verify this
// out of band; see StatsResponse.Platform/Models). It refuses a stream that
// already has a live session and snapshots that fail validation.
func (s *Server) ImportStream(stream int, snap SessionSnapshot) error {
	return s.pool.ImportStream(stream, snap)
}

// Models returns the profiled candidate set in index order.
func (s *Server) Models() []*Model { return s.prof.Models }

// Platform returns the platform the candidate set was profiled on.
func (s *Server) Platform() *Platform { return s.prof.Platform }

// PowerCaps returns the platform's cap ladder in watts.
func (s *Server) PowerCaps() []float64 { return s.prof.Caps }

// Decide selects the configuration for stream's next input, blocking until
// the stream's shard serves it.
func (s *Server) Decide(stream int, spec Spec) (Decision, Estimate) {
	d, est := s.pool.Decide(stream, spec)
	return s.decision(d), est
}

// decision is the engine's decision as the public API reports it: with the
// cap's wattage resolved.
func (s *Server) decision(d sim.Decision) Decision {
	return Decision{
		Model:       d.Model,
		Cap:         d.Cap,
		CapW:        s.prof.Caps[d.Cap],
		PlannedStop: d.PlannedStop,
		Overhead:    d.Overhead,
	}
}

// Observe feeds a stream's measurement back into its shard's estimators.
// It returns without waiting for the update to be applied, but the update
// is ordered before any later Decide on the same stream. The error reports
// a feedback whose decision names a model or cap the server does not have;
// nothing is enqueued then.
func (s *Server) Observe(stream int, fb Feedback) error {
	out, ok, err := feedbackOutcome(s.prof, fb)
	if ok {
		s.pool.Observe(stream, out)
	}
	return err
}

// CheckFeedback returns the error Observe would return for fb — a decision
// naming a model or cap the server does not have — without enqueueing
// anything, so a front end can refuse bad feedback before admitting it.
func (s *Server) CheckFeedback(fb Feedback) error { return checkFeedback(s.prof, fb) }

// BatchRequest is one element of a batched decision dispatch: Stream
// routes the request (requests sharing a stream are served in batch order
// by that stream's shard; distinct streams run concurrently) and Spec is
// its goal.
type BatchRequest struct {
	Stream int
	Spec   Spec
}

// BatchResult is the decision for one BatchRequest, in request order.
type BatchResult struct {
	Stream   int
	Decision Decision
	Estimate Estimate
}

// DecideBatch dispatches the batch across shards and blocks until every
// decision is in, returning results in request order. It is one burst of
// decides; the result slice is its only allocation.
func (s *Server) DecideBatch(reqs []BatchRequest) []BatchResult {
	if len(reqs) == 0 {
		return nil
	}
	b := s.bursts.Get().(*ServerBurst)
	for _, r := range reqs {
		b.Decide(r.Stream, r.Spec)
	}
	b.Run()
	out := make([]BatchResult, len(reqs))
	for i := range out {
		out[i] = b.Result(i)
	}
	b.Reset()
	s.bursts.Put(b)
	return out
}

// ServerBurst is a reusable arrival-ordered group of Decide and Observe
// calls that Run applies as one task per shard instead of one per call —
// what a transport that has already read several pipelined requests uses to
// cross into the engine once. Calls on one stream apply in the order they
// were added, exactly as if made one by one on the Server. Not safe for
// concurrent use; build one per goroutine with Server.NewBurst.
type ServerBurst struct {
	s *Server
	b serve.Burst
}

// NewBurst returns an empty burst bound to the server.
func (s *Server) NewBurst() *ServerBurst { return &ServerBurst{s: s} }

// Decide adds a Decide call and returns the index Result will answer to
// once Run has returned.
func (b *ServerBurst) Decide(stream int, spec Spec) int {
	b.b.Ops = append(b.b.Ops, serve.Op{Stream: stream, Spec: spec})
	return len(b.b.Ops) - 1
}

// Observe adds an Observe call (dropped, like Server.Observe, when the
// measurement carries no signal, and refused with the same error).
func (b *ServerBurst) Observe(stream int, fb Feedback) error {
	out, ok, err := feedbackOutcome(b.s.prof, fb)
	if ok {
		b.b.Ops = append(b.b.Ops, serve.Op{Stream: stream, Observe: true, Out: out})
	}
	return err
}

// Run applies every added call and blocks until all are done.
func (b *ServerBurst) Run() { b.s.pool.Run(&b.b) }

// Result is the answer to the Decide call that returned index i, read
// straight out of the burst.
func (b *ServerBurst) Result(i int) BatchResult {
	op := &b.b.Ops[i]
	return BatchResult{Stream: op.Stream, Decision: b.s.decision(op.Decision), Estimate: op.Estimate}
}

// Reset empties the burst, keeping its memory for the next one.
func (b *ServerBurst) Reset() { b.b.Ops = b.b.Ops[:0] }

// XiEstimate reports the (mean, std) of the slowdown filter serving the
// stream, after draining that shard's queued work.
func (s *Server) XiEstimate(stream int) (mu, sigma float64) {
	return s.pool.XiEstimate(stream)
}

// ServerStats is a point-in-time view of a Server's throughput/latency
// counters (the alias keeps the type nameable outside the module).
type ServerStats = metrics.ServeSnapshot

// Stats snapshots the server's throughput/latency counters.
func (s *Server) Stats() ServerStats { return s.pool.Counters().Snapshot() }

// Close drains every shard and stops the workers; the server must not be
// used afterwards.
func (s *Server) Close() { s.pool.Close() }
