package core

import (
	"math"
	"unsafe"

	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/kalman"
	"github.com/alert-project/alert/internal/mathx"
)

// Engine is the immutable, shareable half of the ALERT controller: the
// enumerated candidate space, its structure-of-arrays view with every
// profile-table invariant precomputed (fastpath.go), and the resolved
// options and overhead model. An Engine is built once per
// (ProfileTable, Options) pair and is safe for concurrent use by any number
// of goroutines — nothing in it is ever written after NewEngine returns.
//
// All mutable per-stream state (the ξ and idle-power Kalman filters, the
// filter epoch, the decision count) lives in State, so a deployment
// serving N inference streams on one platform pays for the candidate space
// and the filter constants once and per-stream only for a State — 72
// pointer-free bytes — instead of N Engine copies. That is the layer split
// that lets the serving pool (internal/serve) scale its stream table to
// millions of streams.
type Engine struct {
	prof *dnn.ProfileTable
	opts Options

	// overhead is the precomputed per-decision cost in seconds.
	overhead float64

	// meanProfLat caches the candidate-set mean profiled latency at the
	// top cap, the yardstick for the overhead model.
	meanProfLat float64

	// candidates is the full DNN × cap × stop-stage space, enumerated once
	// at construction. The space depends only on the profile table, so
	// every Session on this engine shares the one slice.
	candidates []Candidate

	// space is the structure-of-arrays view of candidates with the
	// per-candidate profile invariants precomputed (see fastpath.go).
	space candSpace

	// zEnergy, zStop and zConf are mathx.PhiInv of opts.EnergyConfidence,
	// opts.StopQuantile and opts.Confidence: the standard-normal quantiles
	// every Decide whose spec sets no Prth scores with.
	zEnergy, zStop, zConf float64
}

// NewEngine builds the shared engine over a profiled candidate set,
// completing zero-valued options with the paper's defaults.
func NewEngine(prof *dnn.ProfileTable, opts Options) *Engine {
	if opts.StopQuantile <= 0 || opts.StopQuantile >= 1 {
		opts.StopQuantile = 0.9
	}
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		opts.Confidence = 0.98
	}
	if opts.EnergyConfidence <= 0 || opts.EnergyConfidence >= 1 {
		opts.EnergyConfidence = 0.9
	}
	if opts.Xi == (kalman.XiParams{}) {
		opts.Xi = kalman.DefaultXiParams()
	}
	if opts.Idle == (kalman.IdleParams{}) {
		opts.Idle = kalman.DefaultIdleParams()
	}
	e := &Engine{prof: prof, opts: opts}
	top := prof.NumCaps() - 1
	var sum float64
	for i := 0; i < prof.NumModels(); i++ {
		sum += prof.At(i, top)
	}
	e.meanProfLat = sum / float64(prof.NumModels())
	e.overhead = opts.OverheadFrac * e.meanProfLat
	e.candidates = enumerateCandidates(prof)
	e.space = newCandSpace(prof, e.candidates)
	e.zEnergy = mathx.PhiInv(opts.EnergyConfidence)
	e.zStop = mathx.PhiInv(opts.StopQuantile)
	e.zConf = mathx.PhiInv(opts.Confidence)
	return e
}

// enumerateCandidates materializes the joint space: every model × cap,
// expanded by stop stage for anytime models.
func enumerateCandidates(prof *dnn.ProfileTable) []Candidate {
	n := 0
	for _, m := range prof.Models {
		if m.IsAnytime() {
			n += len(m.Stages) + 1
		} else {
			n++
		}
	}
	out := make([]Candidate, 0, n*prof.NumCaps())
	for i := 0; i < prof.NumModels(); i++ {
		m := prof.Models[i]
		for j := 0; j < prof.NumCaps(); j++ {
			if !m.IsAnytime() {
				out = append(out, Candidate{Model: i, Cap: j, StopStage: -1})
				continue
			}
			for k := range m.Stages {
				out = append(out, Candidate{Model: i, Cap: j, StopStage: k})
			}
			out = append(out, Candidate{Model: i, Cap: j, StopStage: len(m.Stages) - 1, RunToDeadline: true})
		}
	}
	return out
}

// Candidates returns the precomputed joint configuration space in
// enumeration order (read-only; shared by every Session).
func (e *Engine) Candidates() []Candidate { return e.candidates }

// NewScratch allocates a scan workspace sized for this engine's longest
// stage ladder. A Scratch may be shared by any number of streams that are
// driven from the same goroutine (e.g. all streams of one serving shard);
// sharing across goroutines races.
func (e *Engine) NewScratch() *Scratch {
	return &Scratch{buf: make([]float64, e.space.maxStages)}
}

// NewSession creates a fresh per-stream session with its own private scan
// workspace. The session starts at the paper's initial filter state
// (ξ ~ N(µ0, σ0²), φ = φ0); it is not safe for concurrent use.
func (e *Engine) NewSession() *Session {
	return e.NewSessionWith(e.NewScratch())
}

// NewSessionWith creates a session sharing an existing scan workspace.
// Sessions sharing one Scratch must all be driven from the same
// goroutine. A workspace sized for a different engine's shorter
// stage ladders is grown (and its memo invalidated) rather than left to
// overflow mid-scan.
func (e *Engine) NewSessionWith(sc *Scratch) *Session {
	if len(sc.buf) < e.space.maxStages {
		sc.buf = make([]float64, e.space.maxStages)
		sc.ladderNom, sc.ladderN = nil, 0
	}
	return &Session{eng: e, sc: sc, st: e.NewState()}
}

// NewState returns a fresh stream's state: the paper's initial filter
// state under the engine's constants, at epoch 1 (epoch 0 is reserved: no
// stream ever carries it, so a snapshot that does is rejected as corrupt).
func (e *Engine) NewState() State {
	return State{Epoch: 1, Xi: kalman.MakeXiState(&e.opts.Xi), Idle: kalman.MakeIdleState(&e.opts.Idle)}
}

// XiPrior returns the (mean, std) of the ξ belief a fresh session starts
// from — the answer for a stream that has no session yet, letting
// monitoring reads stay side-effect-free instead of materializing state.
func (e *Engine) XiPrior() (mu, sigma float64) {
	return e.opts.Xi.Mu0, math.Sqrt(e.opts.Xi.Var0)
}

// SessionBytes is the in-memory footprint of one stream's State, the
// per-stream marginal cost of a deployment sharing one Engine (the shared
// Scratch is amortized across a shard, and the filter constants live in
// the engine). The memory-bound tests read it; the serving layer's
// stream-table entry embeds one State.
func SessionBytes() int { return int(unsafe.Sizeof(State{})) }
