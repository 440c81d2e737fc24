package kalman

import (
	"math"
	"testing"
)

// TestXiFilterStateRoundTrip: a filter restored from State() under the same
// parameters must be indistinguishable from the original — identical
// outputs now, and bit-identical outputs through any shared future
// observation sequence. This is the bit-exactness contract the session
// snapshot machinery (core.SessionSnapshot) is built on.
func TestXiFilterStateRoundTrip(t *testing.T) {
	p := DefaultXiParams()
	orig := NewXiFilter(p)
	obs := []float64{1.2, 0.9, 1.7, 1.05, 2.4, 0.8, 1.0}
	for _, xi := range obs {
		orig.Observe(xi)
	}

	restored := MakeXiFilterFromState(&p, orig.State())
	if restored.State() != orig.State() {
		t.Fatalf("restored state %+v != original %+v", restored.State(), orig.State())
	}
	if restored.Mean() != orig.Mean() || restored.Var() != orig.Var() ||
		restored.Gain() != orig.Gain() || restored.ProcessNoise() != orig.ProcessNoise() ||
		restored.PredictiveVar() != orig.PredictiveVar() || restored.N() != orig.N() {
		t.Fatal("restored filter outputs differ from the original's")
	}

	// Replay continuation: both filters fold in the same future and must
	// stay bit-identical at every step (== on float64, not a tolerance).
	future := []float64{1.5, 1.5, 0.7, 3.0, 1.1, 0.95, 1.3, 2.2}
	for i, xi := range future {
		orig.Observe(xi)
		restored.Observe(xi)
		if restored.State() != orig.State() {
			t.Fatalf("step %d: restored filter diverged: %+v vs %+v", i, restored.State(), orig.State())
		}
	}
}

// TestXiFilterStateFresh: the state of a fresh filter restores to a fresh
// filter — snapshotting a stream that never observed anything is exact too.
func TestXiFilterStateFresh(t *testing.T) {
	p := DefaultXiParams()
	fresh := MakeXiFilter(&p)
	restored := MakeXiFilterFromState(&p, fresh.State())
	if restored != fresh {
		t.Fatalf("restored fresh filter %+v != %+v", restored, fresh)
	}
}

// TestIdlePowerFilterStateRoundTrip mirrors the ξ round trip for the
// idle-power filter.
func TestIdlePowerFilterStateRoundTrip(t *testing.T) {
	p := DefaultIdleParams()
	orig := NewIdlePowerFilter(p)
	for _, r := range []float64{0.25, 0.4, 0.31, 0.28, 0.5} {
		orig.Observe(r)
	}

	restored := MakeIdlePowerFilterFromState(&p, orig.State())
	if restored.State() != orig.State() {
		t.Fatalf("restored state %+v != original %+v", restored.State(), orig.State())
	}
	for i, r := range []float64{0.33, 0.27, 0.6, 0.45} {
		orig.Observe(r)
		restored.Observe(r)
		if restored.Ratio() != orig.Ratio() || restored.State() != orig.State() {
			t.Fatalf("step %d: restored idle filter diverged", i)
		}
	}
}

// TestStateCarriesNonFiniteBits: State/MakeFromState are pure codecs — they
// must preserve whatever bits the struct holds, including non-finite values
// a corrupted snapshot might carry, leaving policy to the restore layer.
func TestStateCarriesNonFiniteBits(t *testing.T) {
	st := XiState{K: math.NaN(), Q: math.Inf(1), Y: -0.0, Mu: 1, Sigma2: 2, N: 3}
	p := DefaultXiParams()
	f := MakeXiFilterFromState(&p, st)
	got := f.State()
	if math.Float64bits(got.K) != math.Float64bits(st.K) ||
		math.Float64bits(got.Q) != math.Float64bits(st.Q) ||
		math.Float64bits(got.Y) != math.Float64bits(st.Y) ||
		got.Mu != st.Mu || got.Sigma2 != st.Sigma2 || got.N != st.N {
		t.Fatalf("state round trip altered bits: %+v vs %+v", got, st)
	}
}
