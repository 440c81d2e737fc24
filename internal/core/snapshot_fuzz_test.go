package core

import (
	"bytes"
	"testing"

	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
)

// FuzzSnapshotRoundTrip: UnmarshalBinary over arbitrary bytes must either
// reject with an error or decode to a snapshot whose re-encoding is
// byte-identical to the input (the codec is a fixed point), and must never
// panic. Mirrors FuzzTraceRoundTrip for the scenario trace format.
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Seeds: real snapshots at several filter maturities, plus near-misses
	// (truncated, extended, version-mangled, all-zeros, junk).
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		f.Fatal(err)
	}
	sess := NewEngine(prof, DefaultOptions()).NewSession()
	seed := func() {
		b, err := sess.st.Snapshot().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed()
	for i := 0; i < 40; i++ {
		sess.Observe(sim.Outcome{ObservedXi: 0.9 + 0.03*float64(i), IdlePower: 5, CapApplied: prof.Caps[i%prof.NumCaps()]})
		sess.Decide(Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9})
	}
	seed()
	good, err := sess.st.Snapshot().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:SnapshotBinaryLen-1])
	f.Add(append(append([]byte{}, good...), 0xAB))
	mangled := append([]byte{}, good...)
	mangled[0], mangled[1] = 0x01, 0x00 // the retired version 1
	f.Add(mangled)
	f.Add(make([]byte, SnapshotBinaryLen))
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap SessionSnapshot
		if err := snap.UnmarshalBinary(data); err != nil {
			return // rejected input; nothing to round-trip
		}
		out, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary failed on a decoded snapshot: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted bytes are not a fixed point:\n in %x\nout %x", data, out)
		}
	})
}
