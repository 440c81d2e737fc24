package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/netserve"
	"github.com/alert-project/alert/internal/scenario"
)

func testConfig() loadConfig {
	cfg, err := parseFlags([]string{
		"-scenario", "bursty", "-streams", "3", "-inputs", "80", "-seed", "5",
	})
	if err != nil {
		panic(err)
	}
	return cfg
}

// TestLoadDeterminism is the acceptance guarantee: replaying the same
// scenario with the same seed yields byte-identical per-stream decision
// sequences, independent of goroutine scheduling.
func TestLoadDeterminism(t *testing.T) {
	a, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.DecisionSeqs) != len(b.DecisionSeqs) {
		t.Fatalf("stream counts differ: %d vs %d", len(a.DecisionSeqs), len(b.DecisionSeqs))
	}
	for s := range a.DecisionSeqs {
		if a.DecisionSeqs[s] != b.DecisionSeqs[s] {
			t.Errorf("stream %d decision sequences differ", s)
		}
		if a.DecisionSeqs[s] == "" {
			t.Errorf("stream %d produced no decisions", s)
		}
	}
	if a.SLOAttainment != b.SLOAttainment || a.MissRate != b.MissRate ||
		a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 {
		t.Error("aggregate metrics differ between identical runs")
	}
}

// TestRecordReplay closes the loop: a trace recorded by one run and
// replayed by another must reproduce the original decision sequences
// exactly — the trace file carries everything environment-shaped.
func TestRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")

	cfg := testConfig()
	original, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := original.Trace.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	replayCfg := cfg
	replayCfg.scenarioName = ""
	replayCfg.replayPath = path
	replayed, err := runLoad(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range original.DecisionSeqs {
		if original.DecisionSeqs[s] != replayed.DecisionSeqs[s] {
			t.Errorf("stream %d: replayed decisions differ from the recorded run", s)
		}
	}
	if replayed.Trace.Scenario != original.Trace.Scenario {
		t.Errorf("replayed scenario %q, want %q", replayed.Trace.Scenario, original.Trace.Scenario)
	}
}

// TestReferenceScorerReplayIdentical is the load-generator leg of the
// decide-fast-path differential criterion: the same scenario replay must
// produce byte-identical per-stream decision sequences and aggregates
// whether the server's shard controllers use the optimized hot path or the
// naive reference scorer (-reference-scorer).
func TestReferenceScorerReplayIdentical(t *testing.T) {
	fast, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if parsed, err := parseFlags([]string{"-reference-scorer"}); err != nil || !parsed.referenceScorer {
		t.Fatalf("-reference-scorer flag did not parse: %v", err)
	}
	refCfg := testConfig()
	refCfg.referenceScorer = true
	ref, err := runLoad(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range fast.DecisionSeqs {
		if fast.DecisionSeqs[s] != ref.DecisionSeqs[s] {
			t.Errorf("stream %d: fast-path decisions diverge from the reference scorer", s)
		}
	}
	if fast.SLOAttainment != ref.SLOAttainment || fast.MissRate != ref.MissRate ||
		fast.AvgEnergy != ref.AvgEnergy || fast.AvgQuality != ref.AvgQuality {
		t.Error("aggregate metrics diverge between fast and reference runs")
	}
}

// TestShardCountInvariance is the alertload-level differential criterion
// for the Engine/Session split: the same replay must produce byte-identical
// per-stream decision sequences whether every stream has a private shard or
// all streams are multiplexed onto a single shard's worker. With one shard,
// every stream's session lives on one goroutine and the cross-stream
// interleaving is maximally schedule-dependent — decisions must not care.
func TestShardCountInvariance(t *testing.T) {
	solo := testConfig()
	solo.shards = solo.streams // one stream per shard, the pre-session layout
	oneShard := testConfig()
	oneShard.shards = 1      // every stream on one worker
	defaults := testConfig() // 0 = one per CPU

	a, err := runLoad(solo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLoad(oneShard)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runLoad(defaults)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.DecisionSeqs {
		if a.DecisionSeqs[s] != b.DecisionSeqs[s] {
			t.Errorf("stream %d: decisions differ between one-shard-per-stream and single-shard runs", s)
		}
		if a.DecisionSeqs[s] != c.DecisionSeqs[s] {
			t.Errorf("stream %d: decisions differ between explicit and default shard counts", s)
		}
	}
	if a.SLOAttainment != b.SLOAttainment || a.AvgEnergy != b.AvgEnergy || a.AvgQuality != b.AvgQuality {
		t.Error("aggregate metrics changed with the shard count")
	}
}

// startAlertserve stands up the network front end over a fresh
// alert.Server with alertload's default platform/task (CPU1/image), like a
// running cmd/alertserve.
func startAlertserve(t *testing.T, cfg netserve.Config) string {
	url, _ := startFrontEnd(t, cfg)
	return url
}

// startFrontEnd is startAlertserve returning the front end too, so tests
// can assert which wire traffic rode.
func startFrontEnd(t *testing.T, cfg netserve.Config) (string, *netserve.Server) {
	t.Helper()
	srv, err := alert.NewServer(alert.CPU1(), alert.ImageCandidates(), alert.ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fe := netserve.New(srv, cfg)
	ts := httptest.NewServer(fe)
	t.Cleanup(func() {
		fe.Close()
		ts.Close()
	})
	return ts.URL, fe
}

// TestAddrModeMatchesInProcess is the tentpole acceptance criterion: the
// same replay driven over loopback sockets against a live network front
// end produces byte-identical per-stream decision sequences to the
// in-process alert.Server path — the HTTP/JSON wire carries every float64
// exactly, and per-stream FIFO survives the network hop.
func TestAddrModeMatchesInProcess(t *testing.T) {
	inProc, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}

	url := startAlertserve(t, netserve.Config{})
	remoteCfg := testConfig()
	remoteCfg.addr = url
	remote, err := runLoad(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != remote.DecisionSeqs[s] {
			t.Errorf("stream %d: network decisions diverge from in-process", s)
		}
		if remote.DecisionSeqs[s] == "" {
			t.Errorf("stream %d produced no decisions over the network", s)
		}
	}
	if inProc.SLOAttainment != remote.SLOAttainment || inProc.MissRate != remote.MissRate ||
		inProc.AvgEnergy != remote.AvgEnergy || inProc.AvgQuality != remote.AvgQuality {
		t.Error("aggregate metrics diverge between in-process and network runs")
	}

	// A second network run against the SAME server must match too: the
	// up-front eviction resets the driven streams, so server history does
	// not leak into a replay.
	again, err := runLoad(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != again.DecisionSeqs[s] {
			t.Errorf("stream %d: second network run diverges (eviction did not reset the stream)", s)
		}
	}
}

// TestAddrModePlatformMismatch: driving a server profiled on a different
// platform must fail loudly at preflight, not silently compare decisions
// made against the wrong profile table.
func TestAddrModePlatformMismatch(t *testing.T) {
	srv, err := alert.NewServer(alert.GPU(), alert.ImageCandidates(), alert.ServerOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(netserve.New(srv, netserve.Config{}))
	t.Cleanup(ts.Close)

	cfg := testConfig()
	cfg.addr = ts.URL
	if _, err := runLoad(cfg); err == nil || !strings.Contains(err.Error(), "platform") {
		t.Fatalf("platform mismatch must fail preflight, got %v", err)
	}
}

// TestAddrModeUnderOverload replays through a deliberately tiny admission
// gate: the client rides out the 429s by retrying, every request is
// eventually served, and the decision sequences stay byte-identical —
// overload sheds cleanly without corrupting any stream.
func TestAddrModeUnderOverload(t *testing.T) {
	inProc, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	url := startAlertserve(t, netserve.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: time.Millisecond})
	remoteCfg := testConfig()
	remoteCfg.addr = url
	remote, err := runLoad(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != remote.DecisionSeqs[s] {
			t.Errorf("stream %d: decisions diverge under admission pressure", s)
		}
	}
}

// TestWireBinaryMatchesInProcess mirrors TestAddrModeMatchesInProcess over
// the binary transport: -wire=binary must produce byte-identical decision
// sequences to the in-process path, with the data plane actually riding
// binwire rather than quietly falling back to JSON.
func TestWireBinaryMatchesInProcess(t *testing.T) {
	inProc, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}

	url, fe := startFrontEnd(t, netserve.Config{})
	remoteCfg := testConfig()
	remoteCfg.addr = url
	remoteCfg.wire = "binary"
	remote, err := runLoad(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != remote.DecisionSeqs[s] {
			t.Errorf("stream %d: binary-wire decisions diverge from in-process", s)
		}
		if remote.DecisionSeqs[s] == "" {
			t.Errorf("stream %d produced no decisions over the binary wire", s)
		}
	}
	if snap := fe.BinStats(); snap.Decides == 0 || snap.Observes == 0 {
		t.Errorf("binwire counters %+v: the run fell back to JSON", snap)
	}
}

// TestWireBinaryUnderOverload mirrors TestAddrModeUnderOverload: the same
// tiny admission gate, but the 429-shaped error frames and Retry-After
// hints ride the binary protocol. Every request must still eventually be
// served with byte-identical decisions.
func TestWireBinaryUnderOverload(t *testing.T) {
	inProc, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	url, fe := startFrontEnd(t, netserve.Config{MaxInflight: 1, MaxQueue: 1, RetryAfter: time.Millisecond})
	remoteCfg := testConfig()
	remoteCfg.addr = url
	remoteCfg.wire = "binary"
	remote, err := runLoad(remoteCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != remote.DecisionSeqs[s] {
			t.Errorf("stream %d: decisions diverge under admission pressure on the binary wire", s)
		}
	}
	if snap := fe.BinStats(); snap.Decides == 0 {
		t.Errorf("binwire counters %+v: the run fell back to JSON", snap)
	}
}

// TestWireFlagErrors pins -wire validation: unknown wires and wires with
// nothing to carry fail at parse time, and a binary run against a server
// that is no ALERT front end fails instead of silently driving anything.
func TestWireFlagErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-wire", "carrier-pigeon", "-addr", "h:1"}); err == nil {
		t.Error("unknown -wire must error")
	}
	if _, err := parseFlags([]string{"-wire", "binary"}); err == nil {
		t.Error("-wire=binary without -addr/-addrs/-chaos must error")
	}
	plain := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(plain.Close)
	cfg := testConfig()
	cfg.addr = plain.URL
	cfg.wire = "binary"
	if _, err := runLoad(cfg); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("binary wire against a non-ALERT server = %v, want an error naming its 404", err)
	}
}

// TestDecisionsOut: the -decisions-out artifact carries exactly the
// per-stream sequences the report holds.
func TestDecisionsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.txt")
	var out strings.Builder
	if err := run([]string{
		"-scenario", "bursty", "-streams", "2", "-inputs", "40", "-seed", "5",
		"-decisions-out", path,
	}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "decision sequences written") {
		t.Errorf("missing decisions-out confirmation:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("decisions file has %d lines, want 2:\n%s", len(lines), data)
	}
	for s, line := range lines {
		if !strings.HasPrefix(line, "stream "+string(rune('0'+s))+": ") {
			t.Errorf("line %d malformed: %q", s, line)
		}
		if len(line) < 20 {
			t.Errorf("line %d suspiciously short: %q", s, line)
		}
	}
}

// TestStreamsAreIndependent: streams never share session state, so adding
// streams must not perturb an existing stream's decisions.
func TestStreamsAreIndependent(t *testing.T) {
	small := testConfig()
	small.streams = 2
	big := testConfig()
	big.streams = 4

	a, err := runLoad(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLoad(big)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < small.streams; s++ {
		if a.DecisionSeqs[s] != b.DecisionSeqs[s] {
			t.Errorf("stream %d decisions changed when fleet grew", s)
		}
	}
}

// TestRunSmoke drives the CLI end-to-end, including -record.
func TestRunSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	var out strings.Builder
	err := run([]string{
		"-scenario", "thermal", "-streams", "2", "-inputs", "60", "-record", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"SLO attainment", "deadline-miss", "p50", "p95", "p99", "trace recorded"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}

	var replay strings.Builder
	if err := run([]string{"-replay", path, "-streams", "2", "-inputs", "60"}, &replay); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(replay.String(), "scenario=thermal") {
		t.Errorf("replay lost the scenario name:\n%s", replay.String())
	}
	if strings.Contains(replay.String(), "note:") {
		t.Errorf("matching-seed replay should not warn:\n%s", replay.String())
	}

	// A replay under a different -seed cannot reproduce the recording's
	// decisions; the banner must say which seed ran and point at the
	// recording's.
	var mismatched strings.Builder
	if err := run([]string{"-replay", path, "-streams", "2", "-inputs", "60", "-seed", "99"}, &mismatched); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mismatched.String(), "seed=99") {
		t.Errorf("banner must report the driving seed:\n%s", mismatched.String())
	}
	if !strings.Contains(mismatched.String(), "note: replayed trace was recorded with seed=1") {
		t.Errorf("mismatched-seed replay must warn:\n%s", mismatched.String())
	}
}

// TestClosedLoopMode drives one stream of the same trace under both
// pacings: with no queueing the closed-loop response time equals the
// service time, so misses can only come from slow service, never arrival
// bursts.
func TestClosedLoopMode(t *testing.T) {
	cfg := testConfig()
	plat, models := alert.CPU1(), alert.ImageCandidates()
	spec, err := baseSpec(cfg, plat, models)
	if err != nil {
		t.Fatal(err)
	}
	sspec, err := scenario.ByName(cfg.scenarioName)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.Compile(sspec, plat, cfg.inputs, spec.Deadline, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := dnn.Profile(plat, models)
	if err != nil {
		t.Fatal(err)
	}
	drive := func(open bool) streamResult {
		srv, err := alert.NewServer(plat, models, alert.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := driveStream(inProcess{srv}, prof, tr, spec, dnn.ImageClassification,
			driveConfig{inputs: cfg.inputs, seed: cfg.seed, open: open})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	or, cr := drive(true), drive(false)
	// Decisions are driven by the environment, not the arrival process.
	if or.decisions != cr.decisions {
		t.Error("arrival mode changed decisions")
	}
	// Queueing can only hurt: open-loop p99 response >= closed-loop p99.
	if op, cp := or.rec.LatencyPercentile(99), cr.rec.LatencyPercentile(99); op < cp-1e-12 {
		t.Errorf("open-loop p99 %g below closed-loop %g", op, cp)
	}
}

func TestFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag must error")
	}
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Error("unknown scenario must error")
	}
	if err := run([]string{"-streams", "0"}, &out); err == nil {
		t.Error("zero streams must error")
	}
	if err := run([]string{"-replay", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing replay file must error")
	}
}

// TestAddrsModeMatchesInProcess is the cluster acceptance criterion: the
// same replay routed across a 3-node cluster — with every stream
// live-migrated to the next member every 25 inputs — produces byte-
// identical per-stream decision sequences to the single in-process
// server. The session snapshot wire is canonical binary, so a stream
// served by three nodes in sequence is indistinguishable (decision-wise)
// from one served by a single process.
func TestAddrsModeMatchesInProcess(t *testing.T) {
	inProc, err := runLoad(testConfig())
	if err != nil {
		t.Fatal(err)
	}

	urls := []string{
		startAlertserve(t, netserve.Config{NodeID: "a"}),
		startAlertserve(t, netserve.Config{NodeID: "b"}),
		startAlertserve(t, netserve.Config{NodeID: "c"}),
	}
	clusterCfg := testConfig()
	clusterCfg.addrs = strings.Join(urls, ",")
	clusterCfg.migrateEvery = 25
	clustered, err := runLoad(clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != clustered.DecisionSeqs[s] {
			t.Errorf("stream %d: clustered decisions diverge from in-process", s)
		}
		if clustered.DecisionSeqs[s] == "" {
			t.Errorf("stream %d produced no decisions across the cluster", s)
		}
	}
	if inProc.SLOAttainment != clustered.SLOAttainment || inProc.MissRate != clustered.MissRate ||
		inProc.AvgEnergy != clustered.AvgEnergy || inProc.AvgQuality != clustered.AvgQuality {
		t.Error("aggregate metrics diverge between in-process and clustered runs")
	}
	// With 80 inputs and a 25-input cadence every stream migrated at least
	// once, so the cluster must have performed real exports and imports.
	if clustered.ServerStats.StreamExports == 0 || clustered.ServerStats.StreamImports == 0 {
		t.Errorf("no migrations recorded: exports=%d imports=%d",
			clustered.ServerStats.StreamExports, clustered.ServerStats.StreamImports)
	}
	// A second clustered run against the SAME nodes must match too: the
	// preflight evicts the driven streams on every member, wherever their
	// sessions ended up.
	again, err := runLoad(clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range inProc.DecisionSeqs {
		if inProc.DecisionSeqs[s] != again.DecisionSeqs[s] {
			t.Errorf("stream %d: second clustered run diverges (cluster-wide eviction failed)", s)
		}
	}
}

// TestAddrsFlagErrors: the cluster flags compose safely.
func TestAddrsFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-addr", "x:1", "-addrs", "x:1,y:2"}, &out); err == nil {
		t.Error("-addr with -addrs must error")
	}
	if err := run([]string{"-migrate-every", "10"}, &out); err == nil {
		t.Error("-migrate-every without -addrs must error")
	}
	if err := run([]string{"-addrs", "x:1", "-migrate-every", "-1"}, &out); err == nil {
		t.Error("negative -migrate-every must error")
	}
	if err := run([]string{"-addrs", " , "}, &out); err == nil {
		t.Error("empty -addrs list must error")
	}
	if err := run([]string{"-addrs", "x:1", "-shards", "4"}, &out); err == nil {
		t.Error("-shards with -addrs must error")
	}
}

// TestChaosSmoke runs the chaos mode end-to-end through run(): a 3-node
// fleet with two drain-kill/restart cycles, recorded to a fleet trace. The run must come back green, the recording
// must be byte-identical across same-seed invocations (the chaos-schedule
// determinism CI pins), and replaying it must reproduce the schedule.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos run")
	}
	dir := t.TempDir()
	f1 := filepath.Join(dir, "f1.json")
	f2 := filepath.Join(dir, "f2.json")
	args := []string{"-chaos", "-streams", "4", "-inputs", "36", "-kill-every", "12", "-seed", "9"}

	var out strings.Builder
	if err := run(append(args, "-fleet-record", f1), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"all invariants held", "drain and kill", "restart", "fleet trace recorded"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}

	var out2 strings.Builder
	if err := run(append(args, "-fleet-record", f2), &out2); err != nil {
		t.Fatalf("%v\n%s", err, out2.String())
	}
	b1, err := os.ReadFile(f1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(f2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("same seed compiled different fleet traces")
	}

	var replay strings.Builder
	if err := run([]string{"-chaos", "-fleet", f1}, &replay); err != nil {
		t.Fatalf("%v\n%s", err, replay.String())
	}
	if !strings.Contains(replay.String(), "all invariants held") {
		t.Errorf("fleet replay not green:\n%s", replay.String())
	}
	if !strings.Contains(replay.String(), "replaying fleet") {
		t.Errorf("replay banner missing:\n%s", replay.String())
	}
}

// TestChaosBinaryWire runs the unmanaged self-healing drill with the data
// plane on the binary transport: kills sever binwire connections, the
// cluster absorbs them on its own, and every invariant still holds.
func TestChaosBinaryWire(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos run")
	}
	var out strings.Builder
	err := run([]string{
		"-chaos", "-unmanaged", "-wire", "binary",
		"-streams", "4", "-nodes", "3", "-inputs", "36", "-kill-every", "18", "-seed", "9",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"binary transport", "all invariants held", "unmanaged kill"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestChaosFlagErrors: the chaos flag set composes with nothing that drives
// a remote server or rewires the in-process controller.
func TestChaosFlagErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-chaos", "-addr", "127.0.0.1:1"},
		{"-chaos", "-addrs", "127.0.0.1:1"},
		{"-chaos", "-replay", "x.json"},
		{"-chaos", "-record", "x.json"},
		{"-chaos", "-reference-scorer"},
		{"-chaos", "-decisions-out", "x.txt"},
		{"-chaos", "-nodes", "1"},
		{"-chaos", "-platform", "GPU"},
		{"-chaos", "-task", "sentence"},
		{"-nodes", "5"},
		{"-kill-every", "10"},
		{"-fleet", "x.json"},
		{"-fleet-record", "x.json"},
		{"-chaos", "-fleet", "/does/not/exist.json"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v accepted, want error", args)
		}
	}
}
