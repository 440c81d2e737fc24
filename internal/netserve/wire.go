package netserve

import (
	"fmt"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/metrics"
)

// This file is the HTTP wire contract: the JSON shapes of every /v1
// endpoint, shared by the server handlers and the typed client package
// (client/). Field names are stable; changes must be additive.
//
// All float64 fields round-trip bit-exactly: encoding/json emits the
// shortest decimal that parses back to the same float64, which is what
// makes a network replay's decision sequences byte-identical to the
// in-process path (pinned by cmd/alertload's -addr tests).

// Objective wire values.
const (
	ObjectiveMinEnergy   = "min_energy"
	ObjectiveMaxAccuracy = "max_accuracy"
)

// Spec is the wire form of alert.Spec. Seconds/joules suffixes make the
// units explicit on the wire; zero optional fields are omitted.
type Spec struct {
	// Objective is "min_energy" (meet the accuracy goal, minimize energy)
	// or "max_accuracy" (meet the energy budget, maximize accuracy).
	Objective string `json:"objective"`
	// DeadlineS is the per-input latency goal in seconds. It doubles as
	// the request's admission deadline: a decide request still queued at
	// the admission gate when its deadline has elapsed is rejected with
	// 429 (a decision that late is useless to the stream).
	DeadlineS     float64 `json:"deadline_s"`
	EnergyBudgetJ float64 `json:"energy_budget_j,omitempty"`
	AccuracyGoal  float64 `json:"accuracy_goal,omitempty"`
	Prth          float64 `json:"prth,omitempty"`
}

// ToSpec converts the wire spec to the public one.
func (s Spec) ToSpec() (alert.Spec, error) {
	out := alert.Spec{
		Deadline:     s.DeadlineS,
		EnergyBudget: s.EnergyBudgetJ,
		AccuracyGoal: s.AccuracyGoal,
		Prth:         s.Prth,
	}
	switch s.Objective {
	case ObjectiveMinEnergy:
		out.Objective = alert.MinimizeEnergy
	case ObjectiveMaxAccuracy:
		out.Objective = alert.MaximizeAccuracy
	default:
		return out, fmt.Errorf("unknown objective %q (want %q or %q)",
			s.Objective, ObjectiveMinEnergy, ObjectiveMaxAccuracy)
	}
	return out, nil
}

// FromSpec converts a public spec to its wire form.
func FromSpec(s alert.Spec) Spec {
	out := Spec{
		DeadlineS:     s.Deadline,
		EnergyBudgetJ: s.EnergyBudget,
		AccuracyGoal:  s.AccuracyGoal,
		Prth:          s.Prth,
	}
	if s.Objective == alert.MaximizeAccuracy {
		out.Objective = ObjectiveMaxAccuracy
	} else {
		out.Objective = ObjectiveMinEnergy
	}
	return out
}

// Decision is the wire form of alert.Decision.
type Decision struct {
	Model        int     `json:"model"`
	Cap          int     `json:"cap"`
	CapW         float64 `json:"cap_w"`
	PlannedStopS float64 `json:"planned_stop_s,omitempty"`
	OverheadS    float64 `json:"overhead_s,omitempty"`
}

// ToDecision converts the wire decision to the public one.
func (d Decision) ToDecision() alert.Decision {
	return alert.Decision{
		Model:       d.Model,
		Cap:         d.Cap,
		CapW:        d.CapW,
		PlannedStop: d.PlannedStopS,
		Overhead:    d.OverheadS,
	}
}

// FromDecision converts a public decision to its wire form.
func FromDecision(d alert.Decision) Decision {
	return Decision{
		Model:        d.Model,
		Cap:          d.Cap,
		CapW:         d.CapW,
		PlannedStopS: d.PlannedStop,
		OverheadS:    d.Overhead,
	}
}

// Estimate is the wire form of alert.Estimate (the scheduler's predictions
// for the chosen candidate).
type Estimate struct {
	Model         int     `json:"model"`
	Cap           int     `json:"cap"`
	StopStage     int     `json:"stop_stage"`
	RunToDeadline bool    `json:"run_to_deadline,omitempty"`
	LatMeanS      float64 `json:"lat_mean_s"`
	PrDeadline    float64 `json:"pr_deadline"`
	Quality       float64 `json:"quality"`
	PrQuality     float64 `json:"pr_quality"`
	EnergyJ       float64 `json:"energy_j"`
	PlannedStopS  float64 `json:"planned_stop_s,omitempty"`
}

// ToEstimate converts the wire estimate to the public one.
func (e Estimate) ToEstimate() alert.Estimate {
	var out alert.Estimate
	out.Model = e.Model
	out.Cap = e.Cap
	out.StopStage = e.StopStage
	out.RunToDeadline = e.RunToDeadline
	out.LatMean = e.LatMeanS
	out.PrDeadline = e.PrDeadline
	out.Quality = e.Quality
	out.PrQuality = e.PrQuality
	out.Energy = e.EnergyJ
	out.PlannedStop = e.PlannedStopS
	return out
}

// FromEstimate converts a public estimate to its wire form.
func FromEstimate(e alert.Estimate) Estimate {
	return Estimate{
		Model:         e.Model,
		Cap:           e.Cap,
		StopStage:     e.StopStage,
		RunToDeadline: e.RunToDeadline,
		LatMeanS:      e.LatMean,
		PrDeadline:    e.PrDeadline,
		Quality:       e.Quality,
		PrQuality:     e.PrQuality,
		EnergyJ:       e.Energy,
		PlannedStopS:  e.PlannedStop,
	}
}

// Feedback is the wire form of alert.Feedback. CompletedStage keeps its
// -1 sentinel (no omitempty: stage 0 is a real stage).
type Feedback struct {
	Decision       Decision `json:"decision"`
	LatencyS       float64  `json:"latency_s"`
	CompletedStage int      `json:"completed_stage"`
	IdlePowerW     float64  `json:"idle_power_w,omitempty"`
}

// ToFeedback converts the wire feedback to the public one.
func (f Feedback) ToFeedback() alert.Feedback {
	return alert.Feedback{
		Decision:       f.Decision.ToDecision(),
		Latency:        f.LatencyS,
		CompletedStage: f.CompletedStage,
		IdlePowerW:     f.IdlePowerW,
	}
}

// FromFeedback converts a public feedback to its wire form.
func FromFeedback(f alert.Feedback) Feedback {
	return Feedback{
		Decision:       FromDecision(f.Decision),
		LatencyS:       f.Latency,
		CompletedStage: f.CompletedStage,
		IdlePowerW:     f.IdlePowerW,
	}
}

// DecideRequest is the POST /v1/decide body.
type DecideRequest struct {
	Stream int  `json:"stream"`
	Spec   Spec `json:"spec"`
}

// DecideResponse is the POST /v1/decide reply. NodeID echoes the serving
// node's cluster identity (empty for a standalone node): routing clients —
// and the chaos harness's single-ownership checker — use it to verify which
// member actually served each decision.
type DecideResponse struct {
	Decision Decision `json:"decision"`
	Estimate Estimate `json:"estimate"`
	NodeID   string   `json:"node_id,omitempty"`
}

// ObserveRequest is the POST /v1/observe body.
type ObserveRequest struct {
	Stream   int      `json:"stream"`
	Feedback Feedback `json:"feedback"`
}

// BatchRequest is the POST /v1/decide-batch body.
type BatchRequest struct {
	Requests []DecideRequest `json:"requests"`
}

// BatchResponse is the POST /v1/decide-batch reply; Results are in request
// order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// BatchResult is one request's slot in a BatchResponse.
type BatchResult struct {
	Stream   int      `json:"stream"`
	Decision Decision `json:"decision"`
	Estimate Estimate `json:"estimate"`
}

// StatsResponse is the GET /v1/stats reply: the stream table's counters
// (what was served) plus the front end's (what the HTTP surface saw).
// Platform and Models identify the serving configuration, so clients
// driving comparisons (cmd/alertload -addr) can refuse a server profiled
// on a different platform or candidate set instead of silently comparing
// incommensurable decisions.
type StatsResponse struct {
	Serve metrics.ServeSnapshot `json:"serve"`
	Net   metrics.NetSnapshot   `json:"net"`
	// Platform is the name of the platform the server's candidate set was
	// profiled on; Models is the candidate count.
	Platform string `json:"platform"`
	Models   int    `json:"models"`
	Shards   int    `json:"shards"`
	Streams  int    `json:"streams"`
	// NodeID is the node's cluster identity as configured at startup
	// (cmd/alertserve -node-id), which routing clients use for sanity
	// checks; member discovery is GET /v1/membership. Empty for a standalone
	// node.
	NodeID string `json:"node_id,omitempty"`
	// BinaryAddr is the binary wire listener's address, advertised when
	// cmd/alertserve runs with -binary-addr; clients built with
	// PreferBinary discover the faster transport here and fall back to
	// JSON when it is absent. Bin is that listener's counter snapshot.
	BinaryAddr string               `json:"binary_addr,omitempty"`
	Bin        *metrics.BinSnapshot `json:"bin,omitempty"`
	// Overload is the admission gate's live state: effective limits,
	// queue-delay signal, shed-by-class counters. Always present — the
	// controller measures even when adaptation is off. SLO is per-stream
	// deadline attainment, absent until a deadline-carrying request has
	// been served or shed.
	Overload *metrics.OverloadSnapshot `json:"overload,omitempty"`
	SLO      []metrics.StreamSLO       `json:"slo,omitempty"`
}

// StreamsResponse is the GET /v1/streams reply.
type StreamsResponse struct {
	Count int   `json:"count"`
	IDs   []int `json:"ids"`
}

// EvictResponse is the DELETE /v1/streams/{id} reply.
type EvictResponse struct {
	Stream  int `json:"stream"`
	Streams int `json:"streams"`
}

// SnapshotResponse is the GET /v1/streams/{id}/snapshot reply: the
// exported session in its canonical binary encoding, base64-wrapped so the
// filter floats ride JSON as opaque bytes instead of formatted numbers
// (bit-exactness is the whole point of the binary format). Version echoes
// the snapshot's format version for operators; the blob itself carries it
// too and the importing node revalidates.
type SnapshotResponse struct {
	Stream      int    `json:"stream"`
	Version     int    `json:"version"`
	SnapshotB64 string `json:"snapshot_b64"`
}

// ImportRequest is the PUT /v1/streams/{id} body; SnapshotB64 is the
// base64 canonical binary encoding, normally copied verbatim from a
// SnapshotResponse.
type ImportRequest struct {
	SnapshotB64 string `json:"snapshot_b64"`
}

// ImportResponse is the PUT /v1/streams/{id} reply.
type ImportResponse struct {
	Stream  int `json:"stream"`
	Streams int `json:"streams"`
}

// ReplicaPutRequest is the PUT /v1/replicas/{id} body: a checkpoint of a
// stream owned by Owner, replicated here so this node can restore the
// stream if Owner dies. The snapshot's own decision count is its
// freshness; no separate field to fall out of sync with the blob.
type ReplicaPutRequest struct {
	Owner       string `json:"owner"`
	SnapshotB64 string `json:"snapshot_b64"`
}

// ReplicaPutResponse is the PUT /v1/replicas/{id} reply.
type ReplicaPutResponse struct {
	Stream   int `json:"stream"`
	Replicas int `json:"replicas"`
}

// ReplicaWire is one held replica in a ReplicasResponse.
type ReplicaWire struct {
	Stream    int    `json:"stream"`
	Owner     string `json:"owner"`
	Decisions int64  `json:"decisions"`
}

// ReplicasResponse is the GET /v1/replicas reply, sorted by stream id.
type ReplicasResponse struct {
	Count    int           `json:"count"`
	Replicas []ReplicaWire `json:"replicas,omitempty"`
}

// ClaimRequest is the POST /v1/claims body: NodeID announces it now
// serves Stream with a session of Decisions decisions, acquired by Kind
// (ClaimKindImport or ClaimKindRestore). Receivers holding a staler
// session for the stream evict it; receivers holding a fresher one answer
// superseded, and the claimant evicts instead. See the kind constants for
// the total order that breaks ties.
type ClaimRequest struct {
	Stream    int    `json:"stream"`
	NodeID    string `json:"node_id"`
	Decisions int64  `json:"decisions"`
	Kind      string `json:"kind"`
}

// ClaimResponse is the POST /v1/claims reply. Decisions is the answering
// node's session decision count for the stream at answer time (-1 when it
// holds none) — claimants use it for logging and invariant checks.
type ClaimResponse struct {
	Superseded bool  `json:"superseded"`
	Decisions  int64 `json:"decisions"`
}

// ErrorResponse is the JSON body of every non-2xx reply. RetryAfterMs
// mirrors the Retry-After header on 429/503 so clients that only read the
// body still back off correctly.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}
