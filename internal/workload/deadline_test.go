package workload

import (
	"math"
	"testing"

	"github.com/alert-project/alert/internal/dnn"
)

// Edge cases of the goal-adjustment step: windows driven to zero or
// negative by overruns or oversized overhead reservations, and goals
// tighter than the tracker's floor, must all clamp to the 5 % floor
// instead of demanding the impossible.

func TestGoalFloorWhenOverheadExceedsDeadline(t *testing.T) {
	// Reserved overhead larger than the deadline would push every goal
	// negative; the tracker must clamp to the floor instead.
	d := NewDeadlineTracker(dnn.ImageClassification, 0.1, 0.5)
	got := d.GoalFor(Input{ID: 0})
	want := 0.1 * 0.05
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("goal %g, want floor %g", got, want)
	}
}

func TestGoalFloorOnExhaustedSentenceBudget(t *testing.T) {
	d := NewDeadlineTracker(dnn.SentencePrediction, 0.1, 0)
	mk := func(w int) Input { return Input{SentenceID: 7, WordIdx: w, SentenceLen: 3} }
	d.GoalFor(mk(0))
	d.Observe(mk(0), 5) // overruns the 0.3s sentence budget 16x over
	floor := 0.1 * 0.05
	for w := 1; w < 3; w++ {
		if got := d.GoalFor(mk(w)); math.Abs(got-floor) > 1e-12 {
			t.Errorf("word %d goal %g, want floor %g (budget is long gone)", w, got, floor)
		}
	}
}

func TestGoalNeverNegativeUnderCombinedPressure(t *testing.T) {
	// Overrun plus overhead: the two negative contributions must not
	// stack below the floor.
	d := NewDeadlineTracker(dnn.SentencePrediction, 0.2, 0.19)
	mk := func(w int) Input { return Input{SentenceID: 1, WordIdx: w, SentenceLen: 4} }
	d.GoalFor(mk(0))
	d.Observe(mk(0), 3)
	for w := 1; w < 4; w++ {
		got := d.GoalFor(mk(w))
		if got <= 0 {
			t.Fatalf("word %d goal %g must stay positive", w, got)
		}
		if got < 0.2*0.05-1e-12 {
			t.Fatalf("word %d goal %g below the floor", w, got)
		}
	}
}

func TestGoalTighterThanFloorIsLifted(t *testing.T) {
	// A sentence long enough that the evenly-spread share sits below the
	// floor: remaining budget / remaining words < 5 % of the deadline
	// after a near-total overrun.
	d := NewDeadlineTracker(dnn.SentencePrediction, 0.1, 0)
	mk := func(w int) Input { return Input{SentenceID: 2, WordIdx: w, SentenceLen: 10} }
	d.GoalFor(mk(0))
	// Budget is 1.0s; spend 0.97 of it on word 0 → per-word share 0.0033,
	// under the 0.005 floor.
	d.Observe(mk(0), 0.97)
	got := d.GoalFor(mk(1))
	if math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("goal %g, want floor 0.005", got)
	}
}

func TestZeroDeadlineYieldsZeroFloor(t *testing.T) {
	// A zero nominal deadline is degenerate: the floor collapses with it.
	// The tracker must not panic and must return a non-negative goal.
	d := NewDeadlineTracker(dnn.ImageClassification, 0, 0)
	if got := d.GoalFor(Input{ID: 0}); got != 0 {
		t.Fatalf("zero-deadline goal = %g, want 0", got)
	}
}

func TestSetPerInputRetargetsMidStream(t *testing.T) {
	d := NewDeadlineTracker(dnn.ImageClassification, 0.1, 0)
	if got := d.GoalFor(Input{ID: 0}); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("initial goal %g", got)
	}
	d.SetPerInput(0.25)
	if got := d.perInput; got != 0.25 {
		t.Fatalf("perInput %g after SetPerInput", got)
	}
	if got := d.GoalFor(Input{ID: 1}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("churned goal %g, want 0.25", got)
	}
}

func TestSetPerInputMidSentenceRecomputesBudget(t *testing.T) {
	d := NewDeadlineTracker(dnn.SentencePrediction, 0.1, 0)
	mk := func(w int) Input { return Input{SentenceID: 4, WordIdx: w, SentenceLen: 4} }
	d.GoalFor(mk(0))
	d.Observe(mk(0), 0.1)
	// Mid-sentence churn: the budget recomputes against the new goal
	// (0.2 × 4 = 0.8) while the 0.1s already spent stays booked.
	d.SetPerInput(0.2)
	want := (0.8 - 0.1) / 3
	if got := d.GoalFor(mk(1)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("churned sentence goal %g, want %g", got, want)
	}
}
