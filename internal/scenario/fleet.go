package scenario

// Fleet scenarios: the chaos layer above per-stream Specs. A FleetSpec
// describes what happens to a whole serving cluster while every stream
// replays the same per-stream scenario — correlated flash crowds that hit a
// subset of streams at once, node kill/restart schedules, and byzantine
// client phases firing malformed or hostile traffic at the nodes. Like
// Spec/Trace, the symbolic FleetSpec compiles (CompileFleet) into a fully
// materialized FleetTrace that is
//
//   - deterministic: CompileFleet is a pure function of (FleetSpec,
//     platform, inputs, period, seed) — crowd memberships, event order, and
//     byzantine payload seeds are all drawn from seed-derived substreams;
//   - replayable: a FleetTrace round-trips through JSON byte-identically
//     (EncodeFleet/DecodeFleet are a fixed point on bytes), so a recorded
//     fleet run is a stable artifact CI can diff across replays;
//   - checkable: internal/chaos replays a FleetTrace against a live cluster
//     while asserting machine-checked invariants (no lost accepted request,
//     balanced export/import gauges, single ownership, determinism where it
//     is defined).
//
// The per-stream environment rides along unchanged: FleetTrace.Base is the
// ordinary compiled Trace every stream replays (with its own workload noise
// seed, exactly like cmd/alertload), compiled from the same seed as a
// non-fleet run so the solo reference controller sees identical inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
)

// Node event kinds.
const (
	// EventKill takes a node down at the start of the round. In a managed
	// fleet the operator drains it first, migrating every session away
	// (nothing is lost); in an unmanaged one it dies where it stands, and
	// the ring successor restores its streams from their last replicas
	// (losing whatever they decided since).
	EventKill = "kill"
	// EventRestart brings a previously killed node back (empty stream
	// table, same identity and address) at the start of the round.
	EventRestart = "restart"
)

// Byzantine request kinds: the hostile traffic a byzantine phase fires at
// the cluster. Every kind must be rejected cleanly (4xx, never a panic or
// a corrupted stream table).
const (
	// ByzGarbageJSON posts unparseable bytes to POST /v1/decide.
	ByzGarbageJSON = "garbage-json"
	// ByzTruncatedSnapshot PUTs a truncated/garbled base64 snapshot body to
	// PUT /v1/streams/{id}.
	ByzTruncatedSnapshot = "truncated-snapshot"
	// ByzBadObjective posts a structurally valid decide with an unknown
	// objective.
	ByzBadObjective = "bad-objective"
	// ByzOversize posts a body larger than the server's request-body bound.
	ByzOversize = "oversize"
	// ByzSlow trickles a valid decide body byte-by-byte — a slow client
	// holding a connection while the fleet is busy.
	ByzSlow = "slow"
)

// ByzKinds lists every byzantine request kind.
var ByzKinds = []string{ByzGarbageJSON, ByzTruncatedSnapshot, ByzBadObjective, ByzOversize, ByzSlow}

// FlashCrowd is a correlated load surge: for Inputs rounds starting at
// AtInput, a randomly chosen (but seed-deterministic) fraction of all
// streams sees its inter-arrival gaps multiplied by GapFactor. Factors
// below 1 are a surge — many streams spiking together, the way real flash
// crowds hit every replica of a popular shard at once.
type FlashCrowd struct {
	// AtInput is the round the crowd arrives; Inputs is how long it stays.
	AtInput int `json:"at"`
	Inputs  int `json:"inputs"`
	// StreamFraction in (0, 1] is the fraction of streams caught in the
	// crowd; membership is drawn once per crowd from the compile seed.
	StreamFraction float64 `json:"streamFraction"`
	// GapFactor (> 0) multiplies the affected streams' arrival gaps while
	// the crowd is active; < 1 compresses gaps (more load).
	GapFactor float64 `json:"gapFactor"`
}

// NodeEvent is one entry in the failure schedule: kill or restart node
// Node at the start of round AtInput.
type NodeEvent struct {
	AtInput int `json:"at"`
	// Node indexes the fleet's nodes, [0, FleetSpec.Nodes).
	Node int `json:"node"`
	// Kind is EventKill or EventRestart.
	Kind string `json:"kind"`
}

// ByzantinePhase is a stretch of hostile client traffic: for Inputs rounds
// starting at AtInput, PerRound byzantine requests per round are fired at
// seed-chosen nodes, each of a seed-chosen kind from ByzKinds.
type ByzantinePhase struct {
	AtInput int `json:"at"`
	Inputs  int `json:"inputs"`
	// PerRound is how many byzantine requests fire each round (default 1).
	PerRound int `json:"perRound,omitempty"`
}

// FleetSpec describes a fleet-scale chaos scenario symbolically. Like Spec
// it is JSON-serializable so custom fleet scenarios can live in files.
type FleetSpec struct {
	// Name identifies the fleet scenario in traces and reports.
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Streams and Nodes size the fleet: how many inference streams drive
	// the cluster, and how many serving nodes it starts with.
	Streams int `json:"streams"`
	Nodes   int `json:"nodes"`
	// Base is the per-stream environment scenario every stream replays.
	Base Spec `json:"base"`
	// CheckpointEvery is the checkpoint cadence in rounds: at the start of
	// every round divisible by it, the harness polls every node's stream
	// table, and in an unmanaged fleet every live node first replicates
	// each session to its ring successor. An unmanaged kill aligned to a
	// checkpoint round is therefore lossless. 0 means 25.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// Unmanaged switches the harness from operator moves to self-healing:
	// a managed kill drains the node first and a restart brings it back,
	// while an unmanaged kill just stops the process, and the cluster
	// itself — membership leases, replicated checkpoints, successor
	// restores — must absorb it. Unmanaged schedules allow no restarts,
	// because relaunching a process is an operator move by definition.
	Unmanaged bool `json:"unmanaged,omitempty"`
	// FlashCrowds, NodeEvents, and Byzantine are the chaos layers; all are
	// optional.
	FlashCrowds []FlashCrowd     `json:"flashCrowds,omitempty"`
	NodeEvents  []NodeEvent      `json:"nodeEvents,omitempty"`
	Byzantine   []ByzantinePhase `json:"byzantine,omitempty"`
}

// checkpointEvery resolves the checkpoint cadence default.
func (f FleetSpec) checkpointEvery() int {
	if f.CheckpointEvery <= 0 {
		return 25
	}
	return f.CheckpointEvery
}

// Validate reports the first structural problem with the fleet spec, or
// nil. The node-event schedule is validated as a program: kills must hit
// live nodes, restarts dead ones, and at least one node must survive every
// kill (a fleet with zero live nodes has nowhere to route anything).
func (f FleetSpec) Validate() error {
	if f.Streams <= 0 {
		return fmt.Errorf("fleet %q: streams %d must be positive", f.Name, f.Streams)
	}
	if f.Nodes <= 0 {
		return fmt.Errorf("fleet %q: nodes %d must be positive", f.Name, f.Nodes)
	}
	if f.CheckpointEvery < 0 {
		return fmt.Errorf("fleet %q: checkpointEvery %d must be non-negative", f.Name, f.CheckpointEvery)
	}
	if err := f.Base.Validate(); err != nil {
		return fmt.Errorf("fleet %q: base: %w", f.Name, err)
	}
	for i, c := range f.FlashCrowds {
		if c.AtInput < 0 || c.Inputs <= 0 {
			return fmt.Errorf("fleet %q: flash crowd %d: at %d / inputs %d invalid", f.Name, i, c.AtInput, c.Inputs)
		}
		if c.StreamFraction <= 0 || c.StreamFraction > 1 {
			return fmt.Errorf("fleet %q: flash crowd %d: streamFraction %g outside (0, 1]", f.Name, i, c.StreamFraction)
		}
		if c.GapFactor <= 0 {
			return fmt.Errorf("fleet %q: flash crowd %d: gapFactor %g must be positive", f.Name, i, c.GapFactor)
		}
	}
	if err := validateEvents(f.Name, f.NodeEvents, f.Nodes); err != nil {
		return err
	}
	if f.Unmanaged {
		if err := validateUnmanaged(f.Name, f.NodeEvents); err != nil {
			return err
		}
	}
	for i, b := range f.Byzantine {
		if b.AtInput < 0 || b.Inputs <= 0 {
			return fmt.Errorf("fleet %q: byzantine phase %d: at %d / inputs %d invalid", f.Name, i, b.AtInput, b.Inputs)
		}
		if b.PerRound < 0 {
			return fmt.Errorf("fleet %q: byzantine phase %d: perRound %d must be non-negative", f.Name, i, b.PerRound)
		}
	}
	return nil
}

// validateEvents type-checks a node-event schedule: sorted replay order,
// legal kinds, and a liveness program that never kills a dead node,
// restarts a live one, or leaves zero nodes standing.
func validateEvents(name string, events []NodeEvent, nodes int) error {
	alive := make([]bool, nodes)
	for i := range alive {
		alive[i] = true
	}
	liveCount := nodes
	// Events are replayed in schedule order; validate in the same order.
	ordered := append([]NodeEvent(nil), events...)
	sortEvents(ordered)
	for i, e := range ordered {
		if e.AtInput < 0 {
			return fmt.Errorf("fleet %q: node event %d: at %d must be non-negative", name, i, e.AtInput)
		}
		if e.Node < 0 || e.Node >= nodes {
			return fmt.Errorf("fleet %q: node event %d: node %d outside [0, %d)", name, i, e.Node, nodes)
		}
		switch e.Kind {
		case EventKill:
			if !alive[e.Node] {
				return fmt.Errorf("fleet %q: node event %d kills node %d, which is already down", name, i, e.Node)
			}
			if liveCount == 1 {
				return fmt.Errorf("fleet %q: node event %d would kill the last live node", name, i)
			}
			alive[e.Node] = false
			liveCount--
		case EventRestart:
			if alive[e.Node] {
				return fmt.Errorf("fleet %q: node event %d restarts node %d, which is already live", name, i, e.Node)
			}
			alive[e.Node] = true
			liveCount++
		default:
			return fmt.Errorf("fleet %q: node event %d: unknown kind %q", name, i, e.Kind)
		}
	}
	return nil
}

// validateUnmanaged rejects restarts, which presuppose an orchestrator
// (somebody must relaunch the process). An unmanaged drill is kill -9 or
// nothing.
func validateUnmanaged(name string, events []NodeEvent) error {
	for i, e := range events {
		if e.Kind == EventRestart {
			return fmt.Errorf("fleet %q: unmanaged schedules forbid restarts (event %d)", name, i)
		}
	}
	return nil
}

// sortEvents orders a schedule for replay: by round, then restarts before
// kills (a node bouncing within one round comes back before the next
// casualty), then by node for a total order.
func sortEvents(events []NodeEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].AtInput != events[j].AtInput {
			return events[i].AtInput < events[j].AtInput
		}
		if events[i].Kind != events[j].Kind {
			return events[i].Kind == EventRestart
		}
		return events[i].Node < events[j].Node
	})
}

func knownByzKind(k string) bool {
	for _, known := range ByzKinds {
		if k == known {
			return true
		}
	}
	return false
}

// CompiledCrowd is a flash crowd with its membership resolved: the sorted
// stream ids caught in the surge and the half-open round interval it spans.
type CompiledCrowd struct {
	From      int     `json:"from"`
	Until     int     `json:"until"`
	GapFactor float64 `json:"gapFactor"`
	Members   []int   `json:"members"`
}

// ByzRequest is one compiled byzantine request: fire a Kind request at node
// Node at the start of round AtInput, with Seed driving the payload bytes.
// Node indexes the configured fleet; if that node is down when the request
// fires, the harness retargets the next live node deterministically.
type ByzRequest struct {
	AtInput int    `json:"at"`
	Kind    string `json:"kind"`
	Node    int    `json:"node"`
	Seed    int64  `json:"seed"`
}

// FleetTrace is a compiled, materialized fleet scenario: the shared
// per-stream environment trace plus the resolved chaos schedule. Like
// Trace it is immutable once compiled and round-trips through JSON
// byte-identically.
type FleetTrace struct {
	// Fleet is the FleetSpec.Name this trace was compiled from.
	Fleet string `json:"fleet"`
	// Seed is the compile seed; (FleetSpec, platform, inputs, period, Seed)
	// fully determine everything below.
	Seed int64 `json:"seed"`
	// Streams and Nodes are copied from the spec.
	Streams int `json:"streams"`
	Nodes   int `json:"nodes"`
	// CheckpointEvery is the resolved checkpoint cadence in rounds.
	CheckpointEvery int `json:"checkpointEvery"`
	// Unmanaged marks a self-healing drill: kills are absorbed by the
	// cluster's own membership and recovery machinery, never the harness.
	Unmanaged bool `json:"unmanaged,omitempty"`
	// Base is the per-stream environment trace, compiled from the same seed
	// as a non-fleet run of the base scenario (so the solo reference
	// controller replays identical inputs).
	Base *Trace `json:"base"`
	// Crowds, Events, and Byz are the resolved chaos schedule, each sorted
	// in replay order.
	Crowds []CompiledCrowd `json:"crowds,omitempty"`
	Events []NodeEvent     `json:"events,omitempty"`
	Byz    []ByzRequest    `json:"byz,omitempty"`
}

// Len returns the number of rounds (inputs per stream) in the fleet trace.
func (t *FleetTrace) Len() int {
	if t.Base == nil {
		return 0
	}
	return t.Base.Len()
}

// GapScale returns the arrival-gap multiplier for a stream at a round: the
// product of every active crowd the stream belongs to (1 outside crowds).
func (t *FleetTrace) GapScale(stream, input int) float64 {
	scale := 1.0
	for _, c := range t.Crowds {
		if input < c.From || input >= c.Until {
			continue
		}
		// Members is sorted; crowds are small relative to fleets, so a
		// binary search keeps the per-input cost negligible.
		i := sort.SearchInts(c.Members, stream)
		if i < len(c.Members) && c.Members[i] == stream {
			scale *= c.GapFactor
		}
	}
	return scale
}

// EventsAt returns the node events scheduled for the start of a round, in
// replay order (Events is kept sorted by CompileFleet and DecodeFleet).
func (t *FleetTrace) EventsAt(input int) []NodeEvent {
	lo := sort.Search(len(t.Events), func(i int) bool { return t.Events[i].AtInput >= input })
	hi := lo
	for hi < len(t.Events) && t.Events[hi].AtInput == input {
		hi++
	}
	return t.Events[lo:hi]
}

// ByzAt returns the byzantine requests scheduled for the start of a round.
func (t *FleetTrace) ByzAt(input int) []ByzRequest {
	lo := sort.Search(len(t.Byz), func(i int) bool { return t.Byz[i].AtInput >= input })
	hi := lo
	for hi < len(t.Byz) && t.Byz[hi].AtInput == input {
		hi++
	}
	return t.Byz[lo:hi]
}

// CheckpointAt reports whether round input opens with a checkpoint round: a
// poll of every node's stream table, after replication in an unmanaged
// fleet. Round 0 does not: there is nothing to snapshot yet.
func (t *FleetTrace) CheckpointAt(input int) bool {
	return input > 0 && t.CheckpointEvery > 0 && input%t.CheckpointEvery == 0
}

// CompileFleet materializes a fleet scenario: the base per-stream trace
// (compiled with the same seed, so it matches a non-fleet compile of the
// base spec), crowd memberships, the validated event schedule, and the
// byzantine request stream. CompileFleet is pure: the same arguments always
// produce the identical FleetTrace, with each stochastic component drawing
// from its own seed-derived substream.
func CompileFleet(spec FleetSpec, plat *platform.Platform, inputs int, period float64, seed int64) (*FleetTrace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for _, e := range spec.NodeEvents {
		if e.AtInput >= inputs {
			return nil, fmt.Errorf("fleet %q: node event at round %d is beyond the %d-round trace", spec.Name, e.AtInput, inputs)
		}
	}
	base, err := Compile(spec.Base, plat, inputs, period, seed)
	if err != nil {
		return nil, err
	}

	// Independent substreams per chaos component, derived in a fixed order
	// (mirrors Compile's own substream discipline).
	root := mathx.NewRand(seed)
	crowdRng := root.Split()
	byzRng := root.Split()

	tr := &FleetTrace{
		Fleet:           spec.Name,
		Seed:            seed,
		Streams:         spec.Streams,
		Nodes:           spec.Nodes,
		CheckpointEvery: spec.checkpointEvery(),
		Unmanaged:       spec.Unmanaged,
		Base:            base,
	}

	for _, c := range spec.FlashCrowds {
		k := int(c.StreamFraction*float64(spec.Streams) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > spec.Streams {
			k = spec.Streams
		}
		members := append([]int(nil), crowdRng.Perm(spec.Streams)[:k]...)
		sort.Ints(members)
		until := c.AtInput + c.Inputs
		if until > inputs {
			until = inputs
		}
		tr.Crowds = append(tr.Crowds, CompiledCrowd{
			From:      c.AtInput,
			Until:     until,
			GapFactor: c.GapFactor,
			Members:   members,
		})
	}

	tr.Events = append([]NodeEvent(nil), spec.NodeEvents...)
	sortEvents(tr.Events)

	for _, b := range spec.Byzantine {
		per := b.PerRound
		if per == 0 {
			per = 1
		}
		until := b.AtInput + b.Inputs
		if until > inputs {
			until = inputs
		}
		for r := b.AtInput; r < until; r++ {
			for j := 0; j < per; j++ {
				tr.Byz = append(tr.Byz, ByzRequest{
					AtInput: r,
					Kind:    ByzKinds[byzRng.Intn(len(ByzKinds))],
					Node:    byzRng.Intn(spec.Nodes),
					Seed:    byzRng.Int63(),
				})
			}
		}
	}
	sort.SliceStable(tr.Byz, func(i, j int) bool { return tr.Byz[i].AtInput < tr.Byz[j].AtInput })
	return tr, nil
}

// EncodeFleet writes the fleet trace as indented JSON. Like Trace.Encode it
// is deterministic and a fixed point: encode → decode → encode is the
// identity on bytes, which is what lets CI diff two same-seed chaos runs.
func (t *FleetTrace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// DecodeFleet reads a fleet trace written by Encode, revalidating the
// chaos schedule so a hand-edited (or fuzzed) file cannot smuggle an
// illegal program into a replay.
func DecodeFleet(r io.Reader) (*FleetTrace, error) {
	var t FleetTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("scenario: decoding fleet trace: %w", err)
	}
	if t.Streams <= 0 || t.Nodes <= 0 {
		return nil, fmt.Errorf("scenario: fleet trace needs positive streams/nodes, got %d/%d", t.Streams, t.Nodes)
	}
	if t.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("scenario: fleet trace checkpointEvery %d must be positive", t.CheckpointEvery)
	}
	if t.Base == nil {
		return nil, fmt.Errorf("scenario: fleet trace has no base trace")
	}
	for i, tick := range t.Base.Ticks {
		if tick.Slowdown < 1 {
			return nil, fmt.Errorf("scenario: fleet base tick %d has slowdown %g < 1", i, tick.Slowdown)
		}
	}
	for i, c := range t.Crowds {
		if c.From < 0 || c.Until < c.From || c.GapFactor <= 0 {
			return nil, fmt.Errorf("scenario: fleet crowd %d has invalid shape", i)
		}
		if !sort.IntsAreSorted(c.Members) {
			return nil, fmt.Errorf("scenario: fleet crowd %d members not sorted", i)
		}
		for _, m := range c.Members {
			if m < 0 || m >= t.Streams {
				return nil, fmt.Errorf("scenario: fleet crowd %d member %d outside [0, %d)", i, m, t.Streams)
			}
		}
	}
	if !sort.SliceIsSorted(t.Events, func(i, j int) bool {
		return t.Events[i].AtInput < t.Events[j].AtInput
	}) {
		return nil, fmt.Errorf("scenario: fleet events not sorted by round")
	}
	if err := validateEvents(t.Fleet, t.Events, t.Nodes); err != nil {
		return nil, err
	}
	if t.Unmanaged {
		if err := validateUnmanaged(t.Fleet, t.Events); err != nil {
			return nil, err
		}
	}
	for i, b := range t.Byz {
		if b.AtInput < 0 || !knownByzKind(b.Kind) || b.Node < 0 || b.Node >= t.Nodes {
			return nil, fmt.Errorf("scenario: fleet byz request %d invalid", i)
		}
	}
	if !sort.SliceIsSorted(t.Byz, func(i, j int) bool { return t.Byz[i].AtInput < t.Byz[j].AtInput }) {
		return nil, fmt.Errorf("scenario: fleet byz requests not sorted by round")
	}
	return &t, nil
}

// WriteFile records the fleet trace at path.
func (t *FleetTrace) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadFleetFile loads a fleet trace recorded by WriteFile.
func ReadFleetFile(path string) (*FleetTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeFleet(f)
}

// DefaultFleet builds the stock managed chaos fleet over a named built-in
// scenario: drain-kill/restart cycles walking round-robin over the nodes,
// one flash crowd surging half the streams mid-run, and a byzantine phase
// overlapping the first failure. killEvery is the rounds between kills (0
// disables failures) and doubles as the checkpoint cadence, so every kill
// follows a table poll; each killed node restarts restartAfter rounds
// later (0 means killEvery/2). The schedule is clamped so every killed
// node restarts within the trace.
func DefaultFleet(base Spec, streams, nodes, inputs, killEvery, restartAfter int) (FleetSpec, error) {
	spec := FleetSpec{
		Name:        "chaos-" + base.Name,
		Description: "kill/restart cycles, flash crowd, and byzantine clients over " + base.Name,
		Streams:     streams,
		Nodes:       nodes,
		Base:        base,
	}
	if killEvery > 0 {
		spec.CheckpointEvery = killEvery
		if restartAfter <= 0 {
			restartAfter = killEvery / 2
		}
		if restartAfter < 1 {
			restartAfter = 1
		}
		victim := 0
		for at := killEvery; at+restartAfter < inputs; at += killEvery {
			spec.NodeEvents = append(spec.NodeEvents,
				NodeEvent{AtInput: at, Node: victim, Kind: EventKill},
				NodeEvent{AtInput: at + restartAfter, Node: victim, Kind: EventRestart},
			)
			victim = (victim + 1) % nodes
		}
	}
	if inputs >= 8 {
		spec.FlashCrowds = []FlashCrowd{{
			AtInput:        inputs / 4,
			Inputs:         inputs / 4,
			StreamFraction: 0.5,
			GapFactor:      0.25,
		}}
		spec.Byzantine = []ByzantinePhase{{
			AtInput:  inputs / 3,
			Inputs:   inputs / 4,
			PerRound: 1,
		}}
	}
	if err := spec.Validate(); err != nil {
		return FleetSpec{}, err
	}
	return spec, nil
}

// DefaultUnmanagedFleet builds the stock self-healing drill: hard kills
// only, no restarts, each aligned to a checkpoint round (so the replicated
// checkpoint the successor restores from is current and the drill stays
// deterministic), walking over the nodes until one survivor remains.
// killEvery is the rounds between kills (0 disables them) and doubles as
// the checkpoint/replication cadence. The flash crowd and byzantine phase
// from DefaultFleet ride along, so convergence happens under load and
// hostile traffic, not in a quiet room.
func DefaultUnmanagedFleet(base Spec, streams, nodes, inputs, killEvery int) (FleetSpec, error) {
	spec := FleetSpec{
		Name:        "unmanaged-" + base.Name,
		Description: "self-healing drill: unmanaged hard kills, flash crowd, and byzantine clients over " + base.Name,
		Streams:     streams,
		Nodes:       nodes,
		Base:        base,
		Unmanaged:   true,
	}
	if killEvery > 0 {
		spec.CheckpointEvery = killEvery
		victim := 0
		for at := killEvery; at < inputs && victim < nodes-1; at += killEvery {
			spec.NodeEvents = append(spec.NodeEvents,
				NodeEvent{AtInput: at, Node: victim, Kind: EventKill})
			victim++
		}
	}
	if inputs >= 8 {
		spec.FlashCrowds = []FlashCrowd{{
			AtInput:        inputs / 4,
			Inputs:         inputs / 4,
			StreamFraction: 0.5,
			GapFactor:      0.25,
		}}
		spec.Byzantine = []ByzantinePhase{{
			AtInput:  inputs / 3,
			Inputs:   inputs / 4,
			PerRound: 1,
		}}
	}
	if err := spec.Validate(); err != nil {
		return FleetSpec{}, err
	}
	return spec, nil
}
