package chaos

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/client"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/scenario"
)

// compileFleet is the test helper: compile a fleet spec or die.
func compileFleet(t *testing.T, spec scenario.FleetSpec, inputs int, seed int64) *scenario.FleetTrace {
	t.Helper()
	ft, err := scenario.CompileFleet(spec, platform.CPU1(), inputs, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestHarnessGracefulCycle is the core acceptance run in miniature: a
// 3-node fleet with two drain-kill/restart cycles, a flash crowd, and
// byzantine phases. Draining is lossless, so the checker must come back
// green with zero diverged streams and every decision matched against the
// solo reference.
func TestHarnessGracefulCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness run")
	}
	base, err := scenario.ByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.DefaultFleet(base, 6, 3, 48, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	ft := compileFleet(t, spec, 48, 42)

	h, err := New(Options{Fleet: ft, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if !rep.OK() {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Kills < 2 || rep.Restarts < 2 {
		t.Errorf("ran %d kills / %d restarts, want >= 2 cycles", rep.Kills, rep.Restarts)
	}
	if len(rep.Diverged) != 0 {
		t.Errorf("lossless schedule diverged: %+v", rep.Diverged)
	}
	if rep.MatchedRounds != rep.Decides {
		t.Errorf("matched %d of %d decisions against solo; lossless run must match all", rep.MatchedRounds, rep.Decides)
	}
	if rep.Decides == 0 || rep.Observes == 0 {
		t.Error("harness drove no traffic")
	}
	if rep.ByzSent > 0 && rep.ByzRejected != rep.ByzSent {
		t.Errorf("byzantine: %d of %d rejected cleanly", rep.ByzRejected, rep.ByzSent)
	}
	if rep.Migrations == 0 {
		t.Error("kill/restart cycles performed no migrations")
	}
}

// TestHarnessMisalignedHardKill is the differential satellite: an
// unmanaged kill OFF the replication cadence leaves the ring successor
// holding stale replicas. Streams whose replica captured everything they
// had decided replay byte-identically; streams that decided past it lose
// those rounds and MUST be reported as diverged — not hidden, and not
// counted as violations.
func TestHarnessMisalignedHardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness run")
	}
	// The base steps into a violent memory co-runner phase at round 14 —
	// inside the window the stale replica loses (10..17) — so the
	// restored filter state genuinely decides differently from solo's.
	base := scenario.Spec{
		Name: "step",
		Contention: []scenario.ContentionPhase{
			{Inputs: 14, Environment: "default"},
			{Inputs: 16, Environment: "memory"},
		},
		Throttle: &scenario.Throttle{Period: 15, Duty: 0.5, MinCapFrac: 0.4},
	}
	const inputs = 30
	spec := scenario.FleetSpec{
		Name:            "misaligned",
		Streams:         5,
		Nodes:           3,
		Base:            base,
		CheckpointEvery: 10,
		Unmanaged:       true,
		NodeEvents: []scenario.NodeEvent{
			// Kill at 17: the round-10 replica is 7 rounds stale for every
			// stream the victim owned.
			{AtInput: 17, Node: 0, Kind: scenario.EventKill},
		},
	}
	ft := compileFleet(t, spec, inputs, 7)

	// The ring places streams by node address, and harness nodes listen on
	// ephemeral ports — so which node owns which streams varies per run,
	// and roughly (2/3)^5 of the time node 0 owns nothing when the kill
	// lands, making the run losslessly clean with nothing to diverge.
	// Retry until the victim actually orphaned a stream; a harness that
	// stops reporting real loss fails every attempt, so the retry cannot
	// mask a regression.
	var rep *Report
	for attempt := 0; ; attempt++ {
		h, err := New(Options{Fleet: ft})
		if err != nil {
			t.Fatal(err)
		}
		rep, err = h.Run(context.Background())
		h.Close()
		if err != nil {
			t.Fatal(err)
		}
		t.Log(rep.Summary())
		if len(rep.Diverged) > 0 || attempt == 4 {
			break
		}
		t.Logf("attempt %d: victim owned no streams (ephemeral-port ring placement); retrying", attempt)
	}

	// The stale restore is expected loss, never an invariant violation …
	if !rep.OK() {
		t.Fatalf("expected loss was flagged as violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	// … and the streams the victim owned are REPORTED as diverged, each
	// naming the replica it was restored from, while everyone else stayed
	// byte-identical.
	if len(rep.Diverged) == 0 {
		t.Fatal("misaligned kill reported no diverged streams")
	}
	if len(rep.Diverged) >= rep.Streams {
		t.Errorf("all %d streams diverged; the kill should only hit the victim's", rep.Streams)
	}
	if rep.Failovers != 1 {
		t.Errorf("absorbed %d failovers, want 1", rep.Failovers)
	}
	sawReal := false
	for _, d := range rep.Diverged {
		if !strings.Contains(d.Reason, "unmanaged kill of n0 at round 17 restored the round-10 replica") {
			t.Errorf("stream %d diverged for %q, want the kill of n0 and the round-10 replica", d.Stream, d.Reason)
		}
		if d.Round >= 0 {
			sawReal = true
			if d.Round < 17 {
				t.Errorf("stream %d diverged at round %d, before the kill at 17", d.Stream, d.Round)
			}
		}
	}
	if !sawReal {
		t.Error("no stream actually decided differently after the stale restore")
	}
	if rep.MatchedRounds == rep.Decides {
		t.Error("stale restore cannot match the solo reference on every decision")
	}
}

// TestHarnessUnmanagedKill is the tentpole acceptance run: hard kills with
// NO harness orchestration — no RemoveMember, no restore. The
// cluster's own failure detector declares the victims dead, the router
// ejects them through SyncMembership, and each ring successor
// restores the orphans from its replicated snapshots. Kills ride the
// replication cadence, so nothing accepted is ever lost and every decision
// stays byte-identical to the solo reference.
func TestHarnessUnmanagedKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness run")
	}
	base, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	const inputs = 36
	spec, err := scenario.DefaultUnmanagedFleet(base, 6, 4, inputs, 12)
	if err != nil {
		t.Fatal(err)
	}
	ft := compileFleet(t, spec, inputs, 42)
	if !ft.Unmanaged {
		t.Fatal("compiled trace lost the unmanaged flag")
	}

	h, err := New(Options{Fleet: ft, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if !rep.OK() {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Failovers != rep.Kills || rep.Kills < 2 {
		t.Errorf("absorbed %d of %d kills as unmanaged failovers, want all of >= 2", rep.Failovers, rep.Kills)
	}
	if rep.Migrations != 0 {
		t.Errorf("unmanaged run performed %d harness migrations, want 0", rep.Migrations)
	}
	if len(rep.Diverged) != 0 {
		t.Errorf("replication-aligned kills diverged: %+v", rep.Diverged)
	}
	if rep.MatchedRounds != rep.Decides {
		t.Errorf("matched %d of %d decisions; aligned unmanaged kills must stay byte-identical", rep.MatchedRounds, rep.Decides)
	}
	if rep.ByzSent > 0 && rep.ByzRejected != rep.ByzSent {
		t.Errorf("byzantine: %d of %d rejected cleanly", rep.ByzRejected, rep.ByzSent)
	}
}

// TestHarnessRejectsManagedEventsWhenUnmanaged: an unmanaged trace carrying
// a restart must be refused up front — there is no orchestrator to execute
// it.
func TestHarnessRejectsManagedEventsWhenUnmanaged(t *testing.T) {
	base, err := scenario.ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.FleetSpec{
		Name: "bad", Streams: 2, Nodes: 2, Base: base,
		NodeEvents: []scenario.NodeEvent{
			{AtInput: 4, Node: 0, Kind: scenario.EventKill},
			{AtInput: 8, Node: 0, Kind: scenario.EventRestart},
		},
	}
	ft := compileFleet(t, spec, 12, 1)
	ft.Unmanaged = true // forced past scenario validation, straight at the harness
	if _, err := New(Options{Fleet: ft}); err == nil {
		t.Fatal("harness accepted an unmanaged trace with a restart")
	}
}

// TestCheckerOwnership: decisions served by a node other than the announced
// owner are single-ownership violations; announced reroutes are not.
func TestCheckerOwnership(t *testing.T) {
	c := NewChecker()
	c.SetOwner(1, "n0")
	c.RecordDecide(1, 0, "n0", "a", "a")
	if v := c.violationCount(); v != 0 {
		t.Fatalf("clean decide raised %d violations", v)
	}
	c.RecordDecide(1, 1, "n2", "a", "a")
	if v := c.violationCount(); v != 1 {
		t.Fatalf("wrong-node decide raised %d violations, want 1", v)
	}
	c.SetOwner(1, "n2")
	c.RecordDecide(1, 2, "n2", "a", "a")
	if v := c.violationCount(); v != 1 {
		t.Fatalf("announced reroute still violated (total %d)", v)
	}
}

// TestCheckerDeterminism: a mismatch on an unforfeited stream is a
// violation; after ExpectDivergence it is recorded as divergence instead,
// and the comparison retires at the first diverging round.
func TestCheckerDeterminism(t *testing.T) {
	c := NewChecker()
	c.SetOwner(3, "n1")
	c.RecordDecide(3, 0, "n1", "x", "y")
	if v := c.violationCount(); v != 1 {
		t.Fatalf("unforfeited mismatch raised %d violations, want 1", v)
	}

	c2 := NewChecker()
	c2.SetOwner(4, "n1")
	c2.RecordDecide(4, 0, "n1", "x", "x")
	c2.ExpectDivergence(4, 2, "hard kill of n0 at round 1")
	c2.RecordDecide(4, 1, "n1", "x", "y")
	c2.RecordDecide(4, 2, "n1", "p", "q") // past divergence: not compared
	if v := c2.violationCount(); v != 0 {
		t.Fatalf("expected divergence raised %d violations", v)
	}
	var rep Report
	c2.Fill(&rep)
	if len(rep.Diverged) != 1 || rep.Diverged[0].Stream != 4 || rep.Diverged[0].Round != 1 {
		t.Fatalf("diverged = %+v, want stream 4 at round 1", rep.Diverged)
	}
	if rep.MatchedRounds != 1 {
		t.Fatalf("matched %d rounds, want 1 (only the pre-kill decide)", rep.MatchedRounds)
	}
}

// TestCheckerConservation: the final session must hold issued − lost
// decisions exactly.
func TestCheckerConservation(t *testing.T) {
	c := NewChecker()
	c.SetOwner(0, "n0")
	for i := 0; i < 10; i++ {
		c.RecordDecide(0, i, "n0", "a", "a")
	}
	c.ExpectDivergence(0, 3, "hard kill")
	c.CheckConservation(0, 7)
	if v := c.violationCount(); v != 0 {
		t.Fatalf("exact conservation raised %d violations", v)
	}
	c.CheckConservation(0, 6)
	if v := c.violationCount(); v != 1 {
		t.Fatalf("off-by-one conservation raised %d violations, want 1", v)
	}
}

// violationCount is a test peephole.
func (c *Checker) violationCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) + c.dropped
}

// TestNodeStopSeversBinwire: a hard kill severs the node's binwire
// connections exactly like its HTTP ones. They are upgraded on the HTTP
// port, and http.Server.Close does not track upgraded connections, so
// without the front end's own Close a client would go on deciding against
// the dead node's closed stream table.
func TestNodeStopSeversBinwire(t *testing.T) {
	n := &node{id: "n0", shards: 1}
	if err := n.start(); err != nil {
		t.Fatal(err)
	}
	defer n.stop()
	c, err := client.New(n.addr, client.Options{PreferBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := c.Decide(ctx, 1, spec); err != nil {
		t.Fatal(err)
	}
	n.stop()
	// The severed connection fails the call at once; one that outlived its
	// node would serve it or leave it hanging until the deadline.
	if _, _, err := c.Decide(ctx, 1, spec); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a decide after the kill returned %v: the binwire connection outlived its node", err)
	}
}
