package core

import (
	"runtime"
	"testing"
	"unsafe"

	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/sim"
)

// These tests pin the Engine/Session contract: sessions over one shared
// engine are byte-for-byte independent of each other (any interleaving of N
// sessions reproduces each stream's solo sequence), the scan
// workspace may be shared without changing a single bit, and a Session
// stays small and allocation-free on the steady-state decide path.

// sessionScript is one stream's deterministic drive: spec churn and
// synthetic feedback drawn only from (stream, step).
type sessionScript struct {
	specs []Spec
	xis   []float64
}

func makeScript(stream, n int) sessionScript {
	rng := mathx.NewRand(int64(7000 + stream))
	sc := sessionScript{specs: make([]Spec, n), xis: make([]float64, n)}
	for i := 0; i < n; i++ {
		sc.specs[i] = specGen(rng)
		sc.xis[i] = 0.8 + 0.6*rng.Float64()
	}
	return sc
}

// soloRun replays a script against a session on its own engine — the paper's
// one-stream deployment every multi-session interleaving must reproduce.
func soloRun(t *testing.T, script sessionScript) ([]sim.Decision, []Estimate) {
	t.Helper()
	ctl := NewEngine(diffProfiles(t)[0], DefaultOptions()).NewSession()
	ds := make([]sim.Decision, len(script.specs))
	es := make([]Estimate, len(script.specs))
	for i, spec := range script.specs {
		ds[i], es[i] = ctl.Decide(spec)
		ctl.Observe(sim.Outcome{ObservedXi: script.xis[i], IdlePower: 6, CapApplied: 30})
	}
	return ds, es
}

// TestSessionsIndependentUnderInterleaving is the core-level differential
// criterion for the Engine/Session split: N sessions sharing one Engine —
// and one Scratch, exactly the serving shard's configuration — are driven
// in an adversarial interleaving (round-robin, bursts, stragglers), and
// every session's decision sequence must equal running its stream alone
// against a session on its own engine, compared with == (bit-for-bit).
func TestSessionsIndependentUnderInterleaving(t *testing.T) {
	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	sc := eng.NewScratch()

	const streams, steps = 5, 80
	scripts := make([]sessionScript, streams)
	sessions := make([]*Session, streams)
	for i := range sessions {
		scripts[i] = makeScript(i, steps)
		sessions[i] = eng.NewSessionWith(sc)
	}

	gotD := make([][]sim.Decision, streams)
	gotE := make([][]Estimate, streams)
	next := make([]int, streams)
	step := func(i int) {
		n := next[i]
		if n >= steps {
			return
		}
		d, e := sessions[i].Decide(scripts[i].specs[n])
		sessions[i].Observe(sim.Outcome{ObservedXi: scripts[i].xis[n], IdlePower: 6, CapApplied: 30})
		gotD[i] = append(gotD[i], d)
		gotE[i] = append(gotE[i], e)
		next[i]++
	}

	// Interleaving: bursts of random length on random sessions, so ladder
	// memos and the shared workspace are handed between streams at
	// arbitrary points.
	rng := mathx.NewRand(11)
	for {
		done := true
		for i := range next {
			if next[i] < steps {
				done = false
			}
		}
		if done {
			break
		}
		i := rng.Intn(streams)
		for burst := 1 + rng.Intn(4); burst > 0; burst-- {
			step(i)
		}
	}

	for i := 0; i < streams; i++ {
		wantD, wantE := soloRun(t, scripts[i])
		for n := range wantD {
			if gotD[i][n] != wantD[n] || gotE[i][n] != wantE[n] {
				t.Fatalf("stream %d step %d: interleaved session decision (%+v, %+v) != solo controller (%+v, %+v)",
					i, n, gotD[i][n], gotE[i][n], wantD[n], wantE[n])
			}
		}
	}
}

// TestSessionSharedVsPrivateScratch pins the Scratch-sharing claim
// directly: the same session history produces bit-identical estimates
// whether its workspace is private or shared with other active sessions.
func TestSessionSharedVsPrivateScratch(t *testing.T) {
	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	shared := eng.NewScratch()
	a := eng.NewSessionWith(shared)
	noise := eng.NewSessionWith(shared) // pollutes the shared workspace between a's decides
	b := eng.NewSession()               // private workspace

	rng := mathx.NewRand(23)
	script := makeScript(0, 120)
	for i, spec := range script.specs {
		noise.Decide(specGen(rng)) // leave a foreign ladder memo behind
		da, ea := a.Decide(spec)
		db, eb := b.Decide(spec)
		if da != db || ea != eb {
			t.Fatalf("step %d: shared-scratch decision (%+v, %+v) != private (%+v, %+v)", i, da, ea, db, eb)
		}
		out := sim.Outcome{ObservedXi: script.xis[i], IdlePower: 6, CapApplied: 30}
		a.Observe(out)
		b.Observe(out)
	}
}

// TestSessionFootprint enforces the memory contract that makes
// million-stream serving plausible: the Session struct is the two Kalman
// filters plus two counters — 192 bytes at most, a quarter of what it was
// with the decision cache — and the *measured* marginal heap cost of a
// session on a shared engine (the serving shard's configuration: shared
// Engine, shared Scratch) is that struct's size class, nothing more.
func TestSessionFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Session{}); sz > 192 {
		t.Errorf("Session struct is %d bytes, want <= 192", sz)
	}
	if sb := SessionBytes(); sb != int(unsafe.Sizeof(Session{})) {
		t.Errorf("SessionBytes() = %d, want %d", sb, unsafe.Sizeof(Session{}))
	}

	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	sc := eng.NewScratch()
	const n = 20000
	sessions := make([]*Session, n)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range sessions {
		sessions[i] = eng.NewSessionWith(sc)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := float64(after.HeapAlloc-before.HeapAlloc) / n
	if perSession > 256 {
		t.Errorf("measured %.0f heap bytes/session on a shared engine, want <= 256", perSession)
	}
	runtime.KeepAlive(sessions)
}

// TestSessionDecideAllocFree extends the controller's steady-state
// allocation contract to a bare session on a shared engine: Decide
// allocates nothing.
func TestSessionDecideAllocFree(t *testing.T) {
	eng := NewEngine(diffProfiles(t)[0], DefaultOptions())
	s := eng.NewSessionWith(eng.NewScratch())
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30}
	s.Observe(out)
	s.Decide(spec) // warm

	if n := testing.AllocsPerRun(200, func() {
		s.Observe(out)
		s.Decide(spec)
	}); n != 0 {
		t.Errorf("session Decide allocates %.1f/op, want 0", n)
	}
}

// TestNewSessionWithUndersizedScratch pins the cross-engine workspace
// guard: a Scratch sized for an engine with shorter (or no) anytime stage
// ladders is grown by NewSessionWith instead of overflowing mid-scan, and
// decisions still match a private-workspace twin bit-for-bit.
func TestNewSessionWithUndersizedScratch(t *testing.T) {
	profs := diffProfiles(t)
	mixed := NewEngine(profs[0], DefaultOptions()) // anytime ladders: needs scratch
	zoo := NewEngine(profs[1], DefaultOptions())   // all-traditional: maxStages 0

	small := zoo.NewScratch()
	a := mixed.NewSessionWith(small) // must grow the workspace
	b := mixed.NewSession()
	rng := mathx.NewRand(31)
	for i := 0; i < 40; i++ {
		spec := specGen(rng)
		da, ea := a.Decide(spec)
		db, eb := b.Decide(spec)
		if da != db || ea != eb {
			t.Fatalf("step %d: grown-scratch session diverged from private-scratch twin", i)
		}
		out := sim.Outcome{ObservedXi: 0.9 + 0.4*rng.Float64(), IdlePower: 6, CapApplied: 30}
		a.Observe(out)
		b.Observe(out)
	}
}

// TestEngineXiPrior pins the side-effect-free read the serving layer
// answers sessionless streams with: the prior equals a fresh session's
// belief.
func TestEngineXiPrior(t *testing.T) {
	eng := NewEngine(diffProfiles(t)[0], DefaultOptions())
	mu, sigma := eng.XiPrior()
	s := eng.NewSession()
	if mu != s.XiMean() || sigma != s.XiStd() {
		t.Errorf("XiPrior() = (%g, %g), fresh session = (%g, %g)", mu, sigma, s.XiMean(), s.XiStd())
	}
}

// TestControllerIsEngineSessionFacade pins what the paper's one-stream
// controller is now: one Engine plus one Session, whose engine is fully
// shareable — a second session on it decides identically to a session on
// a fresh engine.
func TestControllerIsEngineSessionFacade(t *testing.T) {
	prof := diffProfiles(t)[0]
	ctl := NewEngine(prof, DefaultOptions()).NewSession()
	if ctl.Engine() == nil {
		t.Fatal("session has no engine")
	}
	if got, want := len(ctl.Candidates()), len(ctl.Engine().Candidates()); got != want {
		t.Fatalf("session candidates %d != engine candidates %d", got, want)
	}

	twinA := ctl.Engine().NewSession()
	twinB := NewEngine(prof, DefaultOptions()).NewSession()
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.92}
	for i := 0; i < 20; i++ {
		da, ea := twinA.Decide(spec)
		db, eb := twinB.Decide(spec)
		if da != db || ea != eb {
			t.Fatalf("step %d: engine-shared session != session on a fresh engine", i)
		}
		out := sim.Outcome{ObservedXi: 1.0 + 0.02*float64(i), IdlePower: 6, CapApplied: 30}
		twinA.Observe(out)
		twinB.Observe(out)
	}
}
