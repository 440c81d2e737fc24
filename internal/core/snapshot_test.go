package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"github.com/alert-project/alert/internal/kalman"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/sim"
)

// restoreSession rebuilds a session from a snapshot the way the serving
// layer imports a stream: validate, then adopt the state on the scan
// workspace sc.
func restoreSession(e *Engine, sc *Scratch, snap SessionSnapshot) (*Session, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	s := e.NewSessionWith(sc)
	s.st = snap.State
	return s, nil
}

// TestSnapshotRestoreReplayIdentical is the tentpole differential test:
// snapshot a session mid-stream, restore it (directly and through the
// binary codec), and drive original and restored sessions through the same
// future traffic — every decision and estimate must be bit-identical (==),
// i.e. restore-then-replay is indistinguishable from never having
// snapshotted.
func TestSnapshotRestoreReplayIdentical(t *testing.T) {
	for _, prof := range diffProfiles(t) {
		eng := NewEngine(prof, DefaultOptions())
		orig := eng.NewSession()
		rng := mathx.NewRand(23)
		spec := specGen(rng)

		// Evolve the session past its priors with mixed traffic.
		for step := 0; step < 120; step++ {
			switch {
			case rng.Float64() < 0.4:
				orig.Observe(sim.Outcome{
					ObservedXi: 0.7 + rng.Float64(),
					IdlePower:  8 * rng.Float64(),
					CapApplied: prof.Caps[rng.Intn(prof.NumCaps())],
				})
			case rng.Float64() < 0.3:
				spec = specGen(rng)
			}
			orig.Decide(spec)
		}

		// Snapshot → restore, both in-memory and through the binary codec.
		snap := orig.st.Snapshot()
		restored, err := restoreSession(eng, eng.NewScratch(), snap)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded SessionSnapshot
		if err := decoded.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
		if decoded != snap {
			t.Fatalf("binary round trip changed the snapshot:\n in %+v\nout %+v", snap, decoded)
		}
		shipped, err := restoreSession(eng, eng.NewScratch(), decoded)
		if err != nil {
			t.Fatal(err)
		}

		if restored.st.Epoch != orig.st.Epoch || restored.st.Decisions != orig.st.Decisions ||
			restored.XiMean() != orig.XiMean() || restored.XiStd() != orig.XiStd() ||
			restored.IdleRatio() != orig.IdleRatio() {
			t.Fatal("restored session state differs from the original's")
		}

		// Replay continuation: identical future traffic, bit-identical
		// decisions at every step, for both restore paths.
		for step := 0; step < 200; step++ {
			switch {
			case rng.Float64() < 0.4:
				out := sim.Outcome{
					ObservedXi: 0.6 + 1.6*rng.Float64(),
					IdlePower:  10 * rng.Float64(),
					CapApplied: prof.Caps[rng.Intn(prof.NumCaps())],
				}
				orig.Observe(out)
				restored.Observe(out)
				shipped.Observe(out)
			case rng.Float64() < 0.3:
				spec = specGen(rng)
			}
			d0, e0 := orig.Decide(spec)
			d1, e1 := restored.Decide(spec)
			d2, e2 := shipped.Decide(spec)
			if d0 != d1 || e0 != e1 {
				t.Fatalf("step %d: restored session diverged:\norig (%+v, %+v)\nrest (%+v, %+v)", step, d0, e0, d1, e1)
			}
			if d0 != d2 || e0 != e2 {
				t.Fatalf("step %d: binary-shipped session diverged", step)
			}
		}
	}
}

// TestSnapshotFreshSession: a fresh session's snapshot restores to a
// session indistinguishable from a fresh one — the degenerate migration of
// a stream that never saw traffic works.
func TestSnapshotFreshSession(t *testing.T) {
	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	fresh := eng.NewSession()
	restored, err := restoreSession(eng, eng.NewScratch(), fresh.st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	d0, e0 := eng.NewSession().Decide(spec)
	d1, e1 := restored.Decide(spec)
	if d0 != d1 || e0 != e1 {
		t.Fatal("restored fresh session decides differently from a fresh session")
	}
}

// TestSnapshotDoesNotConsume: snapshotting must not perturb the session it
// reads — the original keeps deciding identically to a twin that was never
// snapshotted.
func TestSnapshotDoesNotConsume(t *testing.T) {
	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	a, b := eng.NewSession(), eng.NewSession()
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.15, AccuracyGoal: 0.9}
	for i := 0; i < 50; i++ {
		out := sim.Outcome{ObservedXi: 1 + 0.01*float64(i), IdlePower: 5, CapApplied: prof.Caps[0]}
		a.Observe(out)
		b.Observe(out)
		a.st.Snapshot() // only a is snapshotted, every iteration
		da, ea := a.Decide(spec)
		db, eb := b.Decide(spec)
		if da != db || ea != eb {
			t.Fatalf("step %d: snapshotting perturbed the session", i)
		}
	}
}

// TestSnapshotBinaryCanonical: the encoding is a fixed point — encode →
// decode → encode is byte-identical — and has the documented fixed width.
func TestSnapshotBinaryCanonical(t *testing.T) {
	prof := diffProfiles(t)[0]
	sess := NewEngine(prof, DefaultOptions()).NewSession()
	sess.Observe(sim.Outcome{ObservedXi: 1.3, IdlePower: 4, CapApplied: prof.Caps[0]})
	sess.Decide(Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})

	snap := sess.st.Snapshot()
	b1, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != SnapshotBinaryLen {
		t.Fatalf("encoded %d bytes, want %d", len(b1), SnapshotBinaryLen)
	}
	var dec SessionSnapshot
	if err := dec.UnmarshalBinary(b1); err != nil {
		t.Fatal(err)
	}
	b2, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encode∘decode is not the identity:\n%x\n%x", b1, b2)
	}
}

// TestSnapshotUnmarshalRejects: wrong lengths and unknown versions error
// cleanly instead of decoding garbage.
func TestSnapshotUnmarshalRejects(t *testing.T) {
	good, err := State{Epoch: 1}.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var snap SessionSnapshot
	for _, tc := range [][]byte{
		nil,
		{},
		good[:len(good)-1],
		append(append([]byte{}, good...), 0),
	} {
		if err := snap.UnmarshalBinary(tc); err == nil {
			t.Errorf("UnmarshalBinary accepted %d bytes", len(tc))
		}
	}
	bad := append([]byte{}, good...)
	bad[0], bad[1] = 0xFF, 0xFF // version 0xFFFF
	if err := snap.UnmarshalBinary(bad); err == nil {
		t.Error("UnmarshalBinary accepted an unknown version")
	}
}

// TestSnapshotV2Layout pins the version-2 wire layout byte for byte. Every
// field holds a different value, so a swapped or shifted field changes the
// bytes even though it would still survive a round trip.
func TestSnapshotV2Layout(t *testing.T) {
	st := State{
		Epoch:     7,
		Decisions: 5,
		Xi:        kalman.XiState{K: 0.5, Q: 0.25, Y: -0.125, Mu: 1.5, Sigma2: 2},
		Idle:      kalman.IdleState{M: 3, Phi: 0.75},
	}
	want, err := hex.DecodeString("0200" + // version 2
		"0700000000000000" + // epoch
		"0500000000000000" + // decisions
		"000000000000e03f" + // ξ K
		"000000000000d03f" + // ξ Q
		"000000000000c0bf" + // ξ Y
		"000000000000f83f" + // ξ Mu
		"0000000000000040" + // ξ Sigma2
		"0000000000000840" + // idle M
		"000000000000e83f") // idle Phi
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v2 encoding:\n got %x\nwant %x", got, want)
	}
	var dec SessionSnapshot
	if err := dec.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if dec != st.Snapshot() {
		t.Fatalf("decoded %+v, want %+v", dec, st.Snapshot())
	}
}

// TestSnapshotRejectsV1: a version-1 blob (90 bytes, with the two
// observation counters) and a 74-byte blob stamped version 1 are both
// refused; there is no version-1 decoder.
func TestSnapshotRejectsV1(t *testing.T) {
	v1 := make([]byte, 90)
	binary.LittleEndian.PutUint16(v1, 1)
	binary.LittleEndian.PutUint64(v1[2:], 1)
	var snap SessionSnapshot
	if err := snap.UnmarshalBinary(v1); err == nil || !strings.Contains(err.Error(), "is 90 bytes") {
		t.Errorf("90-byte v1 blob: err %v, want a length error", err)
	}
	stamped, err := State{Epoch: 1}.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(stamped, 1)
	if err := snap.UnmarshalBinary(stamped); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("74-byte blob stamped version 1: err %v, want a version error", err)
	}
}

// TestRestoreSessionRejects: snapshots no genuine session could produce —
// wrong version, reserved epoch, non-finite or negative filter state — are
// refused at restore, the semantic gate the permissive codec defers to.
func TestRestoreSessionRejects(t *testing.T) {
	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	valid := eng.NewSession().st.Snapshot()

	cases := map[string]func(*SessionSnapshot){
		"version":        func(s *SessionSnapshot) { s.Version = 99 },
		"epoch zero":     func(s *SessionSnapshot) { s.Epoch = 0 },
		"negative count": func(s *SessionSnapshot) { s.Decisions = -1 },
		"nan mu":         func(s *SessionSnapshot) { s.Xi.Mu = math.NaN() },
		"inf sigma":      func(s *SessionSnapshot) { s.Xi.Sigma2 = math.Inf(1) },
		"negative var":   func(s *SessionSnapshot) { s.Xi.Sigma2 = -0.5 },
		"nan phi":        func(s *SessionSnapshot) { s.Idle.Phi = math.NaN() },
	}
	for name, mutate := range cases {
		snap := valid
		mutate(&snap)
		if _, err := restoreSession(eng, eng.NewScratch(), snap); err == nil {
			t.Errorf("%s: restore accepted an invalid snapshot", name)
		}
	}
	if _, err := restoreSession(eng, eng.NewScratch(), valid); err != nil {
		t.Errorf("restore rejected a valid snapshot: %v", err)
	}
}

// TestRestoreSessionWithSharedScratch: restoring onto the workspace of a
// live session decides identically to a private-workspace restore, with
// the two sessions interleaved on the one workspace.
func TestRestoreSessionWithSharedScratch(t *testing.T) {
	prof := diffProfiles(t)[0]
	eng := NewEngine(prof, DefaultOptions())
	sess := eng.NewSession()
	for i := 0; i < 30; i++ {
		sess.Observe(sim.Outcome{ObservedXi: 1.1, IdlePower: 3, CapApplied: prof.Caps[0]})
	}
	snap := sess.st.Snapshot()

	private, err := restoreSession(eng, eng.NewScratch(), snap)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := restoreSession(eng, sess.sc, snap)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRand(5)
	for i := 0; i < 60; i++ {
		spec := specGen(rng)
		d0, e0 := private.Decide(spec)
		d1, e1 := shared.Decide(spec)
		d2, e2 := sess.Decide(spec) // the original, on the same workspace
		if d0 != d1 || e0 != e1 || d0 != d2 || e0 != e2 {
			t.Fatalf("step %d: shared-scratch restore diverged", i)
		}
	}
}
