// Command alertload is the scenario-driven load generator for the
// concurrent serving layer: it drives an alert.Server with many inference
// streams whose environment, arrival process, and requirement spec follow a
// compiled (or recorded) scenario trace, and reports SLO attainment,
// deadline-miss rate, and latency percentiles.
//
// Each stream runs the paper's decide → execute → observe loop against its
// own virtual-time simulation environment replaying the scenario trace;
// the Server multiplexes all streams across its shard pool. Under a trace
// with an open-loop arrival process requests arrive on its gaps and queue
// behind the stream's previous work (response time = queueing wait +
// service time); under a closed-loop trace the next request is issued on
// completion.
//
// Usage:
//
//	alertload -scenario bursty -streams 8 -inputs 300        # built-in scenario
//	alertload -scenario thermal -record trace.json           # record the trace
//	alertload -replay trace.json                             # replay a recording
//	alertload -replay trace.json -addr 127.0.0.1:8372        # drive a live alertserve
//	alertload -replay trace.json -addr 127.0.0.1:8372 -wire=binary  # same, over binwire
//	alertload -addrs h1:8372,h2:8372,h3:8372 -migrate-every 50  # drive a cluster
//	alertload -chaos -nodes 3 -kill-every 12                 # chaos harness run
//	alertload -chaos -unmanaged -nodes 4 -kill-every 12      # self-healing drill
//	alertload -chaos -fleet fleet.json                       # replay a chaos schedule
//
// With -addr the same load is driven over the network against a running
// cmd/alertserve instead of an in-process server, through the routing
// client (client/cluster; -addr X is -addrs X with one member). The wire
// carries every float64 exactly, so -addr replays produce byte-identical
// per-stream decision sequences to the in-process path (pinned in
// main_test.go; the target streams are evicted first so the replay starts
// from fresh sessions). -decisions-out writes the per-stream sequences to a
// file, which is how CI diffs the two paths.
//
// -wire selects the remote transport: json (default) drives the HTTP API,
// binary moves the per-input loop (decide, observe) onto binwire on the
// same address, each connection upgraded from HTTP (GET /v1/binwire); a
// server that refuses the upgrade fails the run rather than letting it
// drive JSON. Evictions and migrations ride HTTP on either wire. Decision
// sequences are byte-identical across wires — the same -decisions-out diff
// CI runs for -addr covers -wire=binary. With -chaos, -wire=binary runs the
// whole failure drill with the fleet's data plane on binwire.
//
// With -addrs the load is spread across a cluster of alertserves: streams
// route to members by consistent hashing (client/cluster), and
// -migrate-every N live-migrates each stream to the next member every N
// inputs — decision sequences stay byte-identical through every move
// because session snapshots ship in their canonical binary encoding.
//
// With -chaos the run becomes a fleet-scale failure drill instead of a load
// test: an in-process cluster of -nodes members is driven through a compiled
// scenario.FleetTrace — a kill every -kill-every inputs, a flash crowd,
// byzantine clients — while internal/chaos machine-checks the serving
// invariants (no lost accepted requests, balanced gauges, single ownership,
// determinism vs a solo controller) continuously. -fleet-record writes the
// compiled FleetTrace; -fleet replays one (same bytes in, same schedule out,
// which is how CI pins chaos-schedule determinism). A managed drill's kill
// drains the node first and a restart brings it back; with -unmanaged the
// node dies where it stands and the cluster's membership and self-healing
// layer absorbs it. The exit status is the verdict: non-zero iff an
// invariant was violated.
//
// Replays are deterministic: the same trace and seed yield byte-identical
// per-stream decision sequences (verified in main_test.go) at ANY shard
// count — every stream owns its own session (its Kalman filter state) on
// the server's shared decision engine, so the scheduling-
// dependent interleaving of streams on a shard changes service order but
// never decisions. -shards therefore defaults to one worker per CPU and is
// purely a throughput knob.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/client/cluster"
	"github.com/alert-project/alert/internal/chaos"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/scenario"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "alertload:", err)
		os.Exit(1)
	}
}

// loadConfig is the resolved invocation.
type loadConfig struct {
	scenarioName string
	replayPath   string
	recordPath   string
	platform     string
	task         string
	streams      int
	inputs       int
	seed         int64
	shards       int
	addr         string // non-empty: drive a live alertserve over the network
	addrs        string // non-empty: drive a cluster of alertserves with hash routing
	wire         string // "json" | "binary": transport for remote/chaos data planes
	migrateEvery int    // with addrs: migrate each stream every N inputs
	decisionsOut string // non-empty: write per-stream decision sequences here

	// chaos mode: drive an in-process fleet through failures instead of a
	// load test, with the invariant checker trailing.
	chaos        bool
	nodes        int    // fleet size
	killEvery    int    // kill a node every N inputs (0 = inputs/3)
	restartAfter int    // restart it N inputs later (0 = killEvery/2)
	unmanaged    bool   // hard kills only, absorbed by the cluster itself
	fleetPath    string // replay a recorded FleetTrace instead of compiling
	fleetRecord  string // record the compiled FleetTrace here

	// overload-drill mode: the admission gate at -overload × its initial
	// capacity, checked against fixed bounds (see drill.go).
	overloadDrill bool
	overload      float64
	gateInflight  int
	gateQueue     int
	serviceDelay  time.Duration
	wallDeadline  time.Duration

	objective      string
	deadlineFactor float64
	accuracy       float64
	budgetW        float64

	// referenceScorer swaps every shard controller onto the naive
	// pre-optimization scorer; replays are byte-identical either way
	// (pinned in main_test.go), so this exists for differential testing.
	referenceScorer bool
}

// streamResult is one stream's contribution to the report.
type streamResult struct {
	rec *metrics.Record
	// decisions is the stream's decision sequence, one compact token per
	// input — the replay-determinism artifact.
	decisions string
}

// loadReport aggregates a run for printing and for tests.
type loadReport struct {
	Trace    *scenario.Trace
	OpenLoop bool
	Streams  int
	Inputs   int
	// Seed is the -seed that drove stream noise in this run; it matches
	// Trace.Seed only when the trace was compiled by this invocation
	// (replays must pass the recording's seed to reproduce decisions).
	Seed int64

	SLOAttainment float64
	MissRate      float64
	P50, P95, P99 float64
	AvgEnergy     float64
	AvgQuality    float64
	ServerStats   alert.ServerStats

	// DecisionSeqs holds each stream's decision sequence, indexed by
	// stream id.
	DecisionSeqs []string
}

// run is main with injectable arguments and output, so the CLI is testable
// end-to-end without a subprocess.
func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.overloadDrill {
		return runOverloadDrill(cfg, stdout)
	}
	if cfg.chaos {
		return runChaos(cfg, stdout)
	}
	if cfg.addr != "" {
		fmt.Fprintf(stdout, "driving remote server at %s wire=%s\n", cfg.addr, cfg.wire)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		return err
	}
	if cfg.recordPath != "" {
		if err := rep.Trace.WriteFile(cfg.recordPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace recorded to %s (%d ticks)\n", cfg.recordPath, rep.Trace.Len())
	}
	if cfg.decisionsOut != "" {
		if err := writeDecisions(cfg.decisionsOut, rep.DecisionSeqs); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "decision sequences written to %s (%d streams)\n", cfg.decisionsOut, len(rep.DecisionSeqs))
	}
	mode := "closed"
	if rep.OpenLoop {
		mode = "open"
	}
	fmt.Fprintf(stdout, "scenario=%s platform=%s streams=%d inputs/stream=%d loop=%s seed=%d\n",
		rep.Trace.Scenario, rep.Trace.Platform, rep.Streams, rep.Inputs, mode, rep.Seed)
	if rep.Trace.Seed != rep.Seed {
		fmt.Fprintf(stdout, "note: replayed trace was recorded with seed=%d; pass -seed %d to reproduce its decisions\n",
			rep.Trace.Seed, rep.Trace.Seed)
	}
	fmt.Fprintf(stdout, "SLO attainment %.1f%% | deadline-miss %.1f%% | latency p50 %.4fs p95 %.4fs p99 %.4fs\n",
		100*rep.SLOAttainment, 100*rep.MissRate, rep.P50, rep.P95, rep.P99)
	fmt.Fprintf(stdout, "avg energy %.3fJ | avg quality %.4f\n", rep.AvgEnergy, rep.AvgQuality)
	fmt.Fprintf(stdout, "serving: %s\n", rep.ServerStats)
	return nil
}

func parseFlags(args []string) (loadConfig, error) {
	var cfg loadConfig
	fs := flag.NewFlagSet("alertload", flag.ContinueOnError)
	fs.StringVar(&cfg.scenarioName, "scenario", "bursty",
		"built-in scenario to compile (see internal/scenario); ignored with -replay")
	fs.StringVar(&cfg.replayPath, "replay", "", "replay a recorded scenario trace (JSON)")
	fs.StringVar(&cfg.recordPath, "record", "", "record the compiled trace to this path")
	fs.StringVar(&cfg.platform, "platform", "CPU1", "Embedded | CPU1 | CPU2 | GPU")
	fs.StringVar(&cfg.task, "task", "image", "image | sentence")
	fs.IntVar(&cfg.streams, "streams", 8, "concurrent inference streams")
	fs.IntVar(&cfg.inputs, "inputs", 300, "inputs per stream")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for trace compilation and stream noise")
	fs.IntVar(&cfg.shards, "shards", 0, "server stream-table shards (0 = one per CPU; decisions are shard-count-invariant)")
	fs.StringVar(&cfg.addr, "addr", "",
		"drive a live alertserve at this host:port (or URL) instead of an in-process server; its streams [0,streams) are evicted first")
	fs.StringVar(&cfg.addrs, "addrs", "",
		"comma-separated alertserve members; streams are routed across the cluster by consistent hashing (streams [0,streams) evicted on every member first)")
	fs.StringVar(&cfg.wire, "wire", "json",
		"json | binary: transport for the remote data plane (-addr/-addrs/-chaos); binary upgrades HTTP connections to binwire")
	fs.IntVar(&cfg.migrateEvery, "migrate-every", 0,
		"with -addrs: live-migrate each stream to the next member every N inputs (0 = never)")
	fs.StringVar(&cfg.decisionsOut, "decisions-out", "",
		"write per-stream decision sequences to this file (one line per stream)")
	fs.StringVar(&cfg.objective, "objective", "energy", "energy (minimize energy) | error (minimize error)")
	fs.Float64Var(&cfg.deadlineFactor, "deadline-factor", 1.25, "deadline as a multiple of the slowest model's latency")
	fs.Float64Var(&cfg.accuracy, "accuracy", 0.92, "accuracy goal (energy objective)")
	fs.Float64Var(&cfg.budgetW, "budget-watts", 0, "energy budget as avg watts over the deadline window (error objective; 0 = platform default cap)")
	fs.BoolVar(&cfg.referenceScorer, "reference-scorer", false,
		"score with the naive reference scorer instead of the optimized hot path (differential testing; decisions are identical)")
	fs.BoolVar(&cfg.chaos, "chaos", false,
		"run the chaos harness: an in-process fleet driven through kill/restart cycles, flash crowds, and byzantine clients under the invariant checker")
	fs.IntVar(&cfg.nodes, "nodes", 3, "with -chaos: fleet size")
	fs.IntVar(&cfg.killEvery, "kill-every", 0,
		"with -chaos: kill a node every N inputs, draining it first (with -unmanaged: a hard kill on the replication cadence) (0 = inputs/3)")
	fs.IntVar(&cfg.restartAfter, "restart-after", 0,
		"with -chaos: restart each killed node N inputs after its kill (0 = half of -kill-every)")
	fs.BoolVar(&cfg.unmanaged, "unmanaged", false,
		"with -chaos: unmanaged hard kills only — no restarts, no harness orchestration; the cluster's membership + self-healing layer absorbs each kill by itself")
	fs.StringVar(&cfg.fleetPath, "fleet", "",
		"with -chaos: replay a recorded fleet trace (JSON) instead of compiling one from -scenario")
	fs.StringVar(&cfg.fleetRecord, "fleet-record", "",
		"with -chaos: record the compiled fleet trace to this path")
	fs.BoolVar(&cfg.overloadDrill, "overload-drill", false,
		"drive an overload schedule through the admission gate and check it: nothing accepted dropped, decisions identical to an in-process replay, deadline sheds <= 1% of issued, queue-delay p95 <= the wall deadline (exit non-zero on any failure)")
	fs.Float64Var(&cfg.overload, "overload", 2.0,
		"with -overload-drill: offered load as a multiple of the gate's initial capacity (gate-inflight / service-delay)")
	fs.IntVar(&cfg.gateInflight, "gate-inflight", 2,
		"with -overload-drill: the gate's initial inflight limit")
	fs.IntVar(&cfg.gateQueue, "gate-queue", 16,
		"with -overload-drill: the gate's initial queue limit")
	fs.DurationVar(&cfg.serviceDelay, "service-delay", 3*time.Millisecond,
		"with -overload-drill: pinned per-decide service time, so gate capacity is a known quantity")
	fs.DurationVar(&cfg.wallDeadline, "wall-deadline", 18*time.Millisecond,
		"with -overload-drill: nominal wall-clock deadline per request (scaled per input by the trace's deadline churn)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.streams <= 0 || cfg.inputs <= 0 {
		return cfg, fmt.Errorf("streams and inputs must be positive")
	}
	if cfg.addr != "" && cfg.addrs != "" {
		return cfg, fmt.Errorf("-addr and -addrs are mutually exclusive")
	}
	remote := cfg.addr != "" || cfg.addrs != ""
	switch cfg.wire {
	case "json", "binary":
	default:
		return cfg, fmt.Errorf("unknown -wire %q (json | binary)", cfg.wire)
	}
	if cfg.wire == "binary" && !remote && !cfg.chaos {
		return cfg, fmt.Errorf("-wire=binary requires -addr, -addrs, or -chaos (the in-process path has no wire)")
	}
	if remote && cfg.referenceScorer {
		return cfg, fmt.Errorf("-reference-scorer configures the in-process server and cannot apply to a remote -addr/-addrs")
	}
	if remote && cfg.shards != 0 {
		return cfg, fmt.Errorf("-shards configures the in-process server; the remote server's shard count is its own")
	}
	if cfg.migrateEvery < 0 {
		return cfg, fmt.Errorf("-migrate-every must be >= 0")
	}
	if cfg.migrateEvery > 0 && cfg.addrs == "" {
		return cfg, fmt.Errorf("-migrate-every requires -addrs (migration moves sessions between cluster members)")
	}
	if cfg.overloadDrill {
		if remote || cfg.chaos {
			return cfg, fmt.Errorf("-overload-drill builds its own in-process server and cannot combine with -addr, -addrs, or -chaos")
		}
		if cfg.wire != "json" {
			return cfg, fmt.Errorf("-overload-drill drives the HTTP/JSON path (admission semantics are transport-identical; see the binwire tests)")
		}
		if cfg.referenceScorer || cfg.decisionsOut != "" || cfg.recordPath != "" {
			return cfg, fmt.Errorf("-reference-scorer, -decisions-out, and -record do not apply to -overload-drill (it oracle-checks decisions itself)")
		}
		if cfg.overload <= 0 || cfg.gateInflight <= 0 || cfg.gateQueue <= 0 {
			return cfg, fmt.Errorf("-overload, -gate-inflight, and -gate-queue must be positive")
		}
		if cfg.serviceDelay <= 0 || cfg.wallDeadline <= 0 {
			return cfg, fmt.Errorf("-service-delay and -wall-deadline must be positive")
		}
	} else if cfg.overload != 2.0 || cfg.gateInflight != 2 || cfg.gateQueue != 16 ||
		cfg.serviceDelay != 3*time.Millisecond || cfg.wallDeadline != 18*time.Millisecond {
		return cfg, fmt.Errorf("-overload, -gate-inflight, -gate-queue, -service-delay, and -wall-deadline require -overload-drill")
	}
	if cfg.chaos {
		if remote {
			return cfg, fmt.Errorf("-chaos builds its own in-process fleet and cannot drive -addr/-addrs")
		}
		if cfg.replayPath != "" || cfg.recordPath != "" {
			return cfg, fmt.Errorf("-chaos schedules are recorded and replayed with -fleet-record/-fleet, not -record/-replay")
		}
		if cfg.referenceScorer || cfg.decisionsOut != "" {
			return cfg, fmt.Errorf("-reference-scorer and -decisions-out do not apply to -chaos (the checker compares decisions itself)")
		}
		if cfg.nodes < 2 {
			return cfg, fmt.Errorf("-chaos needs -nodes >= 2 (kill recovery migrates to survivors)")
		}
		if cfg.killEvery < 0 || cfg.restartAfter < 0 {
			return cfg, fmt.Errorf("-kill-every and -restart-after must be >= 0")
		}
		if cfg.unmanaged && cfg.restartAfter != 0 {
			return cfg, fmt.Errorf("-unmanaged runs without an orchestrator and cannot -restart-after (dead nodes stay dead)")
		}
		// The harness fleet is profiled like the default run; other
		// platforms/tasks would diverge from its solo reference controller.
		if !strings.EqualFold(cfg.platform, "CPU1") || !strings.HasPrefix(strings.ToLower(cfg.task), "image") {
			return cfg, fmt.Errorf("-chaos supports -platform CPU1 -task image (the fleet nodes are profiled for them)")
		}
	} else if cfg.nodes != 3 || cfg.killEvery != 0 || cfg.restartAfter != 0 || cfg.unmanaged || cfg.fleetPath != "" || cfg.fleetRecord != "" {
		return cfg, fmt.Errorf("-nodes, -kill-every, -restart-after, -unmanaged, -fleet, and -fleet-record require -chaos")
	}
	return cfg, nil
}

// backend abstracts the server under load: the in-process alert.Server, or
// one or more remote alertserves reached through the routing client
// (-addr/-addrs). Both expose the same per-stream decide/observe semantics,
// which is what makes the paths' decision sequences byte-identical. The
// drive loops are error-free against the in-process server; over the
// network any request can fail, and the first error ends its stream.
type backend interface {
	Decide(stream int, spec alert.Spec) (alert.Decision, alert.Estimate, error)
	Observe(stream int, fb alert.Feedback) error
	Stats() (alert.ServerStats, error)
}

// inProcess adapts alert.Server to the backend interface.
type inProcess struct{ *alert.Server }

func (s inProcess) Decide(stream int, spec alert.Spec) (alert.Decision, alert.Estimate, error) {
	d, est := s.Server.Decide(stream, spec)
	return d, est, nil
}

func (s inProcess) Stats() (alert.ServerStats, error) { return s.Server.Stats(), nil }

// clusterBackend drives alertserves over the network: requests are routed
// to each stream's consistent-hash home (-addr is a cluster of one), and
// with -migrate-every N the driver live-migrates every stream to the next
// member every N inputs — the decision sequences must stay byte-identical
// through every move, which is what TestAddrsModeMatchesInProcess pins.
type clusterBackend struct {
	cl      *cluster.Cluster
	members []string
	ctx     context.Context
}

func newClusterBackend(cfg loadConfig, plat *alert.Platform, models []*dnn.Model) (*clusterBackend, error) {
	addrs := cfg.addrs
	if cfg.addr != "" {
		addrs = cfg.addr
	}
	var members []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		members = append(members, a)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("-addrs lists no members")
	}
	// Overload 429s are retried by the client itself (they are shed before
	// any state is touched, so retries cannot double-apply); a replay needs
	// every request served, not load shed.
	cl, err := cluster.New(members, client.Options{MaxRetries: 100, PreferBinary: cfg.wire == "binary"})
	if err != nil {
		return nil, err
	}
	cb := &clusterBackend{cl: cl, members: members, ctx: context.Background()}
	if err := cb.preflight(cfg, plat, models); err != nil {
		cl.Close()
		return nil, err
	}
	return cb, nil
}

// preflight checks every member is profiled like this run — or its
// decisions answer a different question and every comparison (and the
// byte-identical replay property) is silently garbage; one mis-profiled node
// would corrupt whichever streams hash onto it. Then it evicts the driven
// streams everywhere, so the replay starts from fresh sessions regardless of
// prior traffic: a stream's session may live on any member after earlier
// migrations.
func (b *clusterBackend) preflight(cfg loadConfig, plat *alert.Platform, models []*dnn.Model) error {
	for _, addr := range b.members {
		node, _ := b.cl.Node(addr)
		stats, err := node.Stats(b.ctx)
		if err != nil {
			return fmt.Errorf("probing %s: %w", addr, err)
		}
		if !strings.EqualFold(stats.Platform, plat.Name) {
			return fmt.Errorf("server at %s serves platform %s, this run simulates %s (start alertserve with -platform %s)",
				addr, stats.Platform, plat.Name, plat.Name)
		}
		if stats.Models != len(models) {
			return fmt.Errorf("server at %s serves %d candidate models, this run simulates %d (start alertserve with -task %s)",
				addr, stats.Models, len(models), cfg.task)
		}
		for s := 0; s < cfg.streams; s++ {
			if err := node.EvictStream(b.ctx, s); err != nil {
				return fmt.Errorf("evicting stream %d on %s: %w", s, addr, err)
			}
		}
	}
	return nil
}

func (b *clusterBackend) Decide(stream int, spec alert.Spec) (alert.Decision, alert.Estimate, error) {
	return b.cl.Decide(b.ctx, stream, spec)
}

func (b *clusterBackend) Observe(stream int, fb alert.Feedback) error {
	return b.cl.Observe(b.ctx, stream, fb)
}

// migrate moves the stream to the member after its current one in -addrs
// order, wrapping.
func (b *clusterBackend) migrate(stream int) error {
	from := b.cl.Route(stream)
	to := b.members[0]
	for i, a := range b.members {
		if a == from {
			to = b.members[(i+1)%len(b.members)]
		}
	}
	if err := b.cl.Migrate(b.ctx, stream, from, to); err != nil {
		return fmt.Errorf("migrating stream %d %s -> %s: %w", stream, from, to, err)
	}
	return nil
}

// Stats sums the members' serving counters; the latency columns take the
// cluster-wide max and the decision-weighted average.
func (b *clusterBackend) Stats() (alert.ServerStats, error) {
	var sum alert.ServerStats
	var weightedAvg time.Duration
	for _, addr := range b.members {
		node, _ := b.cl.Node(addr)
		stats, err := node.Stats(b.ctx)
		if err != nil {
			return sum, fmt.Errorf("stats from %s: %w", addr, err)
		}
		s := stats.Serve
		sum.Decisions += s.Decisions
		sum.Observes += s.Observes
		sum.Batches += s.Batches
		sum.Streams += s.Streams
		sum.SessionBytes += s.SessionBytes
		sum.StreamExports += s.StreamExports
		sum.StreamImports += s.StreamImports
		sum.DecidesPerSec += s.DecidesPerSec
		weightedAvg += s.AvgDecideLatency * time.Duration(s.Decisions)
		if s.MaxDecideLatency > sum.MaxDecideLatency {
			sum.MaxDecideLatency = s.MaxDecideLatency
		}
		if s.Uptime > sum.Uptime {
			sum.Uptime = s.Uptime
		}
	}
	if sum.Decisions > 0 {
		sum.AvgDecideLatency = weightedAvg / time.Duration(sum.Decisions)
	}
	return sum, nil
}

// runLoad executes the load test and returns the aggregate report.
func runLoad(cfg loadConfig) (*loadReport, error) {
	plat, err := alert.PlatformByName(cfg.platform)
	if err != nil {
		return nil, err
	}
	models := alert.ImageCandidates()
	task := dnn.ImageClassification
	if strings.HasPrefix(strings.ToLower(cfg.task), "sent") {
		models = alert.SentenceCandidates()
		task = dnn.SentencePrediction
	}

	spec, err := baseSpec(cfg, plat, models)
	if err != nil {
		return nil, err
	}
	deadline := spec.Deadline

	var tr *scenario.Trace
	if cfg.replayPath != "" {
		if tr, err = scenario.ReadFile(cfg.replayPath); err != nil {
			return nil, err
		}
	} else {
		sspec, err := scenario.ByName(cfg.scenarioName)
		if err != nil {
			return nil, err
		}
		if tr, err = scenario.Compile(sspec, plat, cfg.inputs, deadline, cfg.seed); err != nil {
			return nil, err
		}
	}
	open := tr.OpenLoop()

	// The server under load: in-process by default, live alertserves over
	// the network with -addr/-addrs. Shards bound only worker concurrency;
	// every stream gets its own session either way, so the shard count never
	// changes decisions and 0 can safely mean "one per CPU" (the
	// alert.NewServer default).
	var bk backend
	drive := driveConfig{inputs: cfg.inputs, open: open}
	if cfg.addr != "" || cfg.addrs != "" {
		cb, err := newClusterBackend(cfg, plat, models)
		if err != nil {
			return nil, err
		}
		defer cb.cl.Close()
		bk, drive.migrateEvery, drive.migrate = cb, cfg.migrateEvery, cb.migrate
	} else {
		srv, err := alert.NewServer(plat, models, alert.ServerOptions{
			Shards:  cfg.shards,
			Options: alert.Options{ReferenceScorer: cfg.referenceScorer},
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		bk = inProcess{srv}
	}

	// The streams replay the same trace but draw independent input streams
	// and platform noise, like distinct users of one deployment. Profiling
	// is deterministic, so this table equals the server's internal one.
	prof, err := dnn.Profile(plat, models)
	if err != nil {
		return nil, err
	}

	results := make([]streamResult, cfg.streams)
	errs := make([]error, cfg.streams)
	var wg sync.WaitGroup
	for s := 0; s < cfg.streams; s++ {
		wg.Add(1)
		dc := drive
		dc.stream, dc.seed = s, cfg.seed+int64(s)*7919
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = driveStream(bk, prof, tr, spec, task, dc)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	rep := &loadReport{
		Trace:        tr,
		OpenLoop:     open,
		Streams:      cfg.streams,
		Inputs:       cfg.inputs,
		Seed:         cfg.seed,
		DecisionSeqs: make([]string, cfg.streams),
	}
	all := metrics.NewRecord("alertload")
	for s, res := range results {
		all.Merge(res.rec)
		rep.DecisionSeqs[s] = res.decisions
	}
	rep.SLOAttainment = all.SLOAttainment()
	rep.MissRate = all.DeadlineMissRate()
	rep.P50 = all.LatencyPercentile(50)
	rep.P95 = all.LatencyPercentile(95)
	rep.P99 = all.LatencyPercentile(99)
	rep.AvgEnergy = all.AvgEnergy()
	rep.AvgQuality = all.AvgQuality()
	if rep.ServerStats, err = bk.Stats(); err != nil {
		return nil, err
	}
	return rep, nil
}

// baseSpec resolves the objective flags into the nominal request spec. The
// deadline yardstick is the slowest candidate at the top cap.
func baseSpec(cfg loadConfig, plat *alert.Platform, models []*dnn.Model) (alert.Spec, error) {
	slowest := 0.0
	for _, m := range models {
		if lat := m.RefLatency / plat.Speed(plat.PMax); lat > slowest {
			slowest = lat
		}
	}
	deadline := cfg.deadlineFactor * slowest

	spec := alert.Spec{Deadline: deadline}
	switch strings.ToLower(cfg.objective) {
	case "energy":
		spec.Objective = alert.MinimizeEnergy
		spec.AccuracyGoal = cfg.accuracy
	case "error":
		spec.Objective = alert.MaximizeAccuracy
		w := cfg.budgetW
		if w <= 0 {
			w = plat.DefaultCap
		}
		spec.EnergyBudget = w * deadline
	default:
		return alert.Spec{}, fmt.Errorf("unknown objective %q", cfg.objective)
	}
	return spec, nil
}

// runChaos drives the chaos harness: compile (or replay) a fleet schedule,
// run the in-process fleet through it with the invariant checker trailing,
// and turn the checker's verdict into the exit status.
func runChaos(cfg loadConfig, stdout io.Writer) error {
	plat, models := alert.CPU1(), alert.ImageCandidates()
	spec, err := baseSpec(cfg, plat, models)
	if err != nil {
		return err
	}

	var ft *scenario.FleetTrace
	if cfg.fleetPath != "" {
		if ft, err = scenario.ReadFleetFile(cfg.fleetPath); err != nil {
			return err
		}
		if cfg.unmanaged && !ft.Unmanaged {
			return fmt.Errorf("-unmanaged with a managed fleet trace: the recorded schedule decides the mode")
		}
		mode := ""
		if ft.Unmanaged {
			mode = " (unmanaged)"
		}
		fmt.Fprintf(stdout, "replaying fleet %s%s: %d rounds, %d streams, %d nodes, seed %d\n",
			ft.Fleet, mode, ft.Len(), ft.Streams, ft.Nodes, ft.Seed)
	} else {
		sspec, err := scenario.ByName(cfg.scenarioName)
		if err != nil {
			return err
		}
		killEvery := cfg.killEvery
		if killEvery <= 0 {
			killEvery = cfg.inputs / 3
		}
		var fspec scenario.FleetSpec
		if cfg.unmanaged {
			fspec, err = scenario.DefaultUnmanagedFleet(sspec, cfg.streams, cfg.nodes, cfg.inputs, killEvery)
		} else {
			fspec, err = scenario.DefaultFleet(sspec, cfg.streams, cfg.nodes, cfg.inputs, killEvery, cfg.restartAfter)
		}
		if err != nil {
			return err
		}
		if ft, err = scenario.CompileFleet(fspec, plat, cfg.inputs, spec.Deadline, cfg.seed); err != nil {
			return err
		}
	}
	if cfg.fleetRecord != "" {
		if err := ft.WriteFile(cfg.fleetRecord); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleet trace recorded to %s (%d rounds)\n", cfg.fleetRecord, ft.Len())
	}

	if cfg.wire == "binary" {
		fmt.Fprintln(stdout, "chaos fleet data plane riding the binary transport")
	}
	// Seed 0: a replayed trace reproduces with its own recorded seed.
	h, err := chaos.New(chaos.Options{
		Fleet:  ft,
		Base:   spec,
		Binary: cfg.wire == "binary",
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, "chaos: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Summary())
	if !rep.OK() {
		return fmt.Errorf("%d invariant violations", len(rep.Violations))
	}
	return nil
}

// driveConfig parameterizes one stream's drive loop.
type driveConfig struct {
	stream int
	inputs int
	seed   int64
	open   bool
	// migrateEvery > 0 calls migrate(stream) before every migrateEvery-th
	// input after the first (-migrate-every).
	migrateEvery int
	migrate      func(stream int) error
}

// driveStream runs one inference stream against the server: the paper's
// decide → execute → observe loop (the runner.Loop runner.Run steps), with
// execution simulated by a virtual-time environment replaying the scenario
// trace, and arrivals paced by the trace's arrival process (open loop) or
// by completion (closed loop). Samples book the response time against the
// requested deadline. The first failed request ends the stream.
func driveStream(srv backend, prof *dnn.ProfileTable, tr *scenario.Trace,
	base alert.Spec, task dnn.Task, dc driveConfig) (streamResult, error) {

	loop := runner.NewLoop(sim.NewEnv(prof, tr.Source(), dc.seed*3+2),
		workload.NewStream(task, dc.inputs, dc.seed*3+1), base, tr)
	rec := metrics.NewRecord(fmt.Sprintf("stream-%d", dc.stream))
	var seq strings.Builder

	var arrive, free float64 // virtual clocks: last arrival, server free
	for n := 0; ; n++ {
		in, goal, _, ok := loop.Next()
		if !ok {
			break
		}
		if dc.migrateEvery > 0 && n > 0 && n%dc.migrateEvery == 0 {
			if err := dc.migrate(dc.stream); err != nil {
				return streamResult{}, err
			}
		}

		// Arrival: open loop queues scenario-shaped arrivals behind the
		// stream's previous work; closed loop issues on completion.
		if dc.open {
			arrive += tr.At(in.ID).Gap
		} else {
			arrive = free
		}
		start := math.Max(arrive, free)
		wait := start - arrive

		dspec := loop.Spec
		dspec.Deadline = goal
		d, _, err := srv.Decide(dc.stream, dspec)
		if err != nil {
			return streamResult{}, fmt.Errorf("decide stream %d: %w", dc.stream, err)
		}
		sd := sim.Decision{Model: d.Model, Cap: d.Cap, PlannedStop: d.PlannedStop, Overhead: d.Overhead}
		out := loop.Run(in, sd, goal)
		if err := srv.Observe(dc.stream, alert.Feedback{
			Decision:       d,
			Latency:        out.Latency,
			CompletedStage: out.Stage,
			IdlePowerW:     out.IdlePower,
		}); err != nil {
			return streamResult{}, fmt.Errorf("observe stream %d: %w", dc.stream, err)
		}
		free = start + out.Latency
		rec.Add(loop.Sample(sd, out, wait+out.Latency, loop.Spec.Deadline))
		seq.WriteString(decisionToken(d))
	}
	return streamResult{rec: rec, decisions: seq.String()}, nil
}

// writeDecisions persists the per-stream decision sequences, one line per
// stream — the replay-determinism artifact CI diffs between the in-process
// and -addr paths.
func writeDecisions(path string, seqs []string) error {
	var b strings.Builder
	for s, seq := range seqs {
		fmt.Fprintf(&b, "stream %d: %s\n", s, seq)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
