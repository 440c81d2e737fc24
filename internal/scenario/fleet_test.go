package scenario

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/alert-project/alert/internal/platform"
)

func testFleetSpec(t *testing.T) FleetSpec {
	t.Helper()
	base, err := ByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	return FleetSpec{
		Name:            "test-fleet",
		Streams:         8,
		Nodes:           3,
		Base:            base,
		CheckpointEvery: 20,
		FlashCrowds: []FlashCrowd{
			{AtInput: 30, Inputs: 40, StreamFraction: 0.5, GapFactor: 0.2},
			{AtInput: 50, Inputs: 10, StreamFraction: 0.25, GapFactor: 0.5},
		},
		NodeEvents: []NodeEvent{
			{AtInput: 40, Node: 1, Kind: EventKill},
			{AtInput: 60, Node: 1, Kind: EventRestart},
			{AtInput: 80, Node: 0, Kind: EventKill},
			{AtInput: 100, Node: 0, Kind: EventRestart},
		},
		Byzantine: []ByzantinePhase{{AtInput: 45, Inputs: 20, PerRound: 2}},
	}
}

// TestCompileFleetDeterministic: the whole point — same arguments, same
// trace, byte for byte; different seeds move the stochastic parts.
func TestCompileFleetDeterministic(t *testing.T) {
	spec := testFleetSpec(t)
	plat := platform.CPU1()
	a, err := CompileFleet(spec, plat, 120, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileFleet(spec, plat, 120, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := a.Encode(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("same seed compiled different fleet traces")
	}

	c, err := CompileFleet(spec, plat, 120, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := c.Encode(&cb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab.Bytes(), cb.Bytes()) {
		t.Fatal("different seeds compiled identical fleet traces")
	}
}

// TestFleetBaseMatchesPlainCompile: the fleet's base trace must equal a
// non-fleet compile of the base spec with the same seed — the property that
// makes the solo reference controller in the chaos harness replay exactly
// the inputs a plain alertload run would see.
func TestFleetBaseMatchesPlainCompile(t *testing.T) {
	spec := testFleetSpec(t)
	plat := platform.CPU1()
	ft, err := CompileFleet(spec, plat, 120, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Compile(spec.Base, plat, 120, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := ft.Base.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := plain.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fleet base trace differs from a plain compile at the same seed")
	}
}

// TestFleetRoundTrip: WriteFile/ReadFleetFile must be byte-identical, and
// re-encoding the decoded trace must reproduce the file exactly (the fixed
// point CI's replay diff rests on).
func TestFleetRoundTrip(t *testing.T) {
	spec := testFleetSpec(t)
	ft, err := CompileFleet(spec, platform.CPU1(), 120, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := ft.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFleetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var orig, again bytes.Buffer
	if err := ft.Encode(&orig); err != nil {
		t.Fatal(err)
	}
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), again.Bytes()) {
		t.Fatal("fleet trace does not round-trip byte-identically")
	}
}

// TestFleetGapScale: crowd membership is a strict subset, members see the
// compounded factor inside the window and nothing outside it.
func TestFleetGapScale(t *testing.T) {
	spec := testFleetSpec(t)
	ft, err := CompileFleet(spec, platform.CPU1(), 120, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Crowds) != 2 {
		t.Fatalf("compiled %d crowds, want 2", len(ft.Crowds))
	}
	first := ft.Crowds[0]
	if len(first.Members) != 4 { // 0.5 of 8 streams
		t.Fatalf("crowd 0 has %d members, want 4", len(first.Members))
	}
	member := first.Members[0]
	outsider := -1
	for s := 0; s < spec.Streams; s++ {
		in := false
		for _, m := range first.Members {
			if m == s {
				in = true
			}
		}
		if !in {
			outsider = s
			break
		}
	}
	if outsider < 0 {
		t.Fatal("crowd 0 caught every stream; fraction 0.5 should leave outsiders")
	}
	if got := ft.GapScale(member, first.From); got != first.GapFactor {
		t.Errorf("member scale inside crowd = %g, want %g", got, first.GapFactor)
	}
	if got := ft.GapScale(member, first.Until); got != 1 {
		t.Errorf("member scale after crowd = %g, want 1", got)
	}
	if got := ft.GapScale(outsider, first.From); got != 1 {
		t.Errorf("outsider scale inside crowd = %g, want 1", got)
	}
	// Rounds where both crowds are active compound for double members.
	for _, m := range ft.Crowds[1].Members {
		inFirst := false
		for _, f := range first.Members {
			if f == m {
				inFirst = true
			}
		}
		if inFirst {
			want := first.GapFactor * ft.Crowds[1].GapFactor
			if got := ft.GapScale(m, 55); got != want {
				t.Errorf("double member scale = %g, want %g", got, want)
			}
			return
		}
	}
}

// TestFleetEventAccessors: EventsAt/ByzAt slice the sorted schedules by
// round; CheckpointAt follows the cadence and skips round 0.
func TestFleetEventAccessors(t *testing.T) {
	spec := testFleetSpec(t)
	ft, err := CompileFleet(spec, platform.CPU1(), 120, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if evs := ft.EventsAt(40); len(evs) != 1 || evs[0].Kind != EventKill || evs[0].Node != 1 {
		t.Errorf("EventsAt(40) = %+v, want one kill of node 1", evs)
	}
	if evs := ft.EventsAt(41); len(evs) != 0 {
		t.Errorf("EventsAt(41) = %+v, want none", evs)
	}
	total := 0
	for r := 0; r < 120; r++ {
		total += len(ft.ByzAt(r))
	}
	if total != len(ft.Byz) || total != 2*20 {
		t.Errorf("byz requests total %d (schedule %d), want 40", total, len(ft.Byz))
	}
	if ft.CheckpointAt(0) {
		t.Error("round 0 must not checkpoint")
	}
	if !ft.CheckpointAt(40) || ft.CheckpointAt(41) {
		t.Error("checkpoint cadence broken")
	}
}

// TestFleetValidation: the schedule is a typed program — illegal programs
// must be rejected at compile time, not mid-run.
func TestFleetValidation(t *testing.T) {
	plat := platform.CPU1()
	base, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*FleetSpec)
	}{
		{"zero streams", func(f *FleetSpec) { f.Streams = 0 }},
		{"zero nodes", func(f *FleetSpec) { f.Nodes = 0 }},
		{"kill dead node", func(f *FleetSpec) {
			f.NodeEvents = []NodeEvent{
				{AtInput: 10, Node: 0, Kind: EventKill},
				{AtInput: 20, Node: 0, Kind: EventKill},
			}
		}},
		{"restart live node", func(f *FleetSpec) {
			f.NodeEvents = []NodeEvent{{AtInput: 10, Node: 0, Kind: EventRestart}}
		}},
		{"kill last node", func(f *FleetSpec) {
			f.Nodes = 2
			f.NodeEvents = []NodeEvent{
				{AtInput: 10, Node: 0, Kind: EventKill},
				{AtInput: 20, Node: 1, Kind: EventKill},
			}
		}},
		{"unknown event kind", func(f *FleetSpec) {
			f.NodeEvents = []NodeEvent{{AtInput: 10, Node: 0, Kind: "pause"}}
		}},
		{"event node out of range", func(f *FleetSpec) {
			f.NodeEvents = []NodeEvent{{AtInput: 10, Node: 9, Kind: EventKill}}
		}},
		{"event beyond trace", func(f *FleetSpec) {
			f.NodeEvents = []NodeEvent{{AtInput: 500, Node: 0, Kind: EventKill}}
		}},
		{"bad crowd fraction", func(f *FleetSpec) {
			f.FlashCrowds = []FlashCrowd{{AtInput: 0, Inputs: 10, StreamFraction: 1.5, GapFactor: 0.5}}
		}},
		{"bad crowd gap factor", func(f *FleetSpec) {
			f.FlashCrowds = []FlashCrowd{{AtInput: 0, Inputs: 10, StreamFraction: 0.5, GapFactor: 0}}
		}},
	}
	for _, tc := range cases {
		spec := FleetSpec{Name: "bad", Streams: 4, Nodes: 3, Base: base}
		tc.mut(&spec)
		if _, err := CompileFleet(spec, plat, 60, 0.1, 1); err == nil {
			t.Errorf("%s: CompileFleet accepted an illegal spec", tc.name)
		}
	}
}

// TestDefaultFleet: the stock chaos spec must validate and schedule at
// least two kill/restart cycles at the CI smoke's shape, each kill on a
// checkpoint round.
func TestDefaultFleet(t *testing.T) {
	base, err := ByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DefaultFleet(base, 6, 3, 120, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	kills, restarts := 0, 0
	for _, e := range spec.NodeEvents {
		switch e.Kind {
		case EventKill:
			kills++
			if e.AtInput%spec.checkpointEvery() != 0 {
				t.Errorf("kill at round %d is not checkpoint-aligned (every %d)", e.AtInput, spec.checkpointEvery())
			}
		case EventRestart:
			restarts++
		}
	}
	if kills < 2 || restarts != kills {
		t.Fatalf("stock fleet schedules %d kills / %d restarts, want >= 2 matched cycles", kills, restarts)
	}
	if _, err := CompileFleet(spec, platform.CPU1(), 120, 0.1, 1); err != nil {
		t.Fatalf("stock fleet does not compile: %v", err)
	}
}
