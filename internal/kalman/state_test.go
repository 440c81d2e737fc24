package kalman

import (
	"math"
	"reflect"
	"testing"
)

// TestXiFilterStateRoundTrip: a copy of a filter's state, folding in the
// same observations under the same parameters, stays bit-identical to the
// original (== on float64, not a tolerance). Observe reads nothing but its
// receiver, its parameters and the observation — the contract the session
// snapshot (core.SessionSnapshot) ships the state on.
func TestXiFilterStateRoundTrip(t *testing.T) {
	p := DefaultXiParams()
	orig := MakeXiState(&p)
	for _, xi := range []float64{1.2, 0.9, 1.7, 1.05, 2.4, 0.8, 1.0} {
		orig.Observe(&p, xi)
	}

	restored := orig
	for i, xi := range []float64{1.5, 1.5, 0.7, 3.0, 1.1, 0.95, 1.3, 2.2} {
		orig.Observe(&p, xi)
		restored.Observe(&p, xi)
		if restored != orig || restored.PredictiveVar(&p) != orig.PredictiveVar(&p) {
			t.Fatalf("step %d: restored filter diverged: %+v vs %+v", i, restored, orig)
		}
	}
}

// TestXiFilterStateFresh: a fresh state is exactly the parameters' initial
// values, with no innovation and no observations.
func TestXiFilterStateFresh(t *testing.T) {
	p := DefaultXiParams()
	want := XiState{K: p.K0, Q: p.Q0, Mu: p.Mu0, Sigma2: p.Var0}
	if got := MakeXiState(&p); got != want {
		t.Fatalf("fresh state %+v, want %+v", got, want)
	}
	ip := DefaultIdleParams()
	if got, want := MakeIdleState(&ip), (IdleState{M: ip.M0, Phi: ip.Phi0}); got != want {
		t.Fatalf("fresh idle state %+v, want %+v", got, want)
	}
}

// TestIdlePowerFilterStateRoundTrip mirrors the ξ round trip for the
// idle-power filter.
func TestIdlePowerFilterStateRoundTrip(t *testing.T) {
	p := DefaultIdleParams()
	orig := MakeIdleState(&p)
	for _, r := range []float64{0.25, 0.4, 0.31, 0.28, 0.5} {
		orig.Observe(&p, r)
	}

	restored := orig
	for i, r := range []float64{0.33, 0.27, 0.6, 0.45} {
		orig.Observe(&p, r)
		restored.Observe(&p, r)
		if restored != orig {
			t.Fatalf("step %d: restored idle filter diverged", i)
		}
	}
}

// TestStateCarriesNonFiniteBits: a rejected observation leaves every bit of
// the state untouched, including non-finite values a corrupted snapshot
// might carry — policy on those belongs to the restore layer.
func TestStateCarriesNonFiniteBits(t *testing.T) {
	st := XiState{K: math.NaN(), Q: math.Inf(1), Y: math.Copysign(0, -1), Mu: 1, Sigma2: 2}
	p := DefaultXiParams()
	got := st
	got.Observe(&p, math.NaN())
	got.Observe(&p, -1)
	if !reflect.DeepEqual(fieldBits(got), fieldBits(st)) {
		t.Fatalf("rejected observation altered bits: %+v vs %+v", got, st)
	}

	idle := IdleState{M: math.NaN(), Phi: math.Copysign(0, -1)}
	ip := DefaultIdleParams()
	gotIdle := idle
	gotIdle.Observe(&ip, math.NaN())
	gotIdle.Observe(&ip, -1)
	if !reflect.DeepEqual(fieldBits(gotIdle), fieldBits(idle)) {
		t.Fatalf("rejected idle observation altered bits: %+v vs %+v", gotIdle, idle)
	}
}

// fieldBits returns the bit pattern of every field of a filter state, so a
// comparison sees every field and tells NaN from NaN and -0 from +0, which
// == on the struct cannot.
func fieldBits(st any) []uint64 {
	v := reflect.ValueOf(st)
	bits := make([]uint64, v.NumField())
	for i := range bits {
		bits[i] = math.Float64bits(v.Field(i).Float())
	}
	return bits
}
