package workload

import "github.com/alert-project/alert/internal/dnn"

// DeadlineTracker implements ALERT's goal-adjustment step (§3.2 step 2).
//
// Image and QA inputs each carry an independent deadline. Sentence
// prediction is different: "all the words in a sentence are processed by a
// DNN one by one and share one sentence-wise deadline and hence delays in
// previous input processing could greatly shorten the available time for
// the next input". The tracker books time spent per sentence and hands each
// word the remaining budget spread over the remaining words, so a slow word
// tightens — and a fast word relaxes — every subsequent word's goal.
type DeadlineTracker struct {
	task dnn.Task
	// perInput is the nominal per-input latency goal T_goal.
	perInput float64
	// overhead is the controller's worst-case own cost, subtracted from
	// every goal so ALERT itself never causes a violation (§3.2, §4).
	overhead float64

	curSentence int
	spent       float64
}

// NewDeadlineTracker builds a tracker for the task with the nominal
// per-input goal and the controller overhead to reserve.
func NewDeadlineTracker(task dnn.Task, perInput, overhead float64) *DeadlineTracker {
	return &DeadlineTracker{task: task, perInput: perInput, overhead: overhead, curSentence: -1}
}

// SetPerInput retargets the nominal per-input goal mid-stream — scenario
// spec churn. The new goal takes effect from the next GoalFor; for sentence
// prediction the current sentence's remaining budget is recomputed against
// the new goal while the time already spent stays booked.
func (d *DeadlineTracker) SetPerInput(goal float64) { d.perInput = goal }

// GoalFor returns the adjusted latency goal for the given input.
func (d *DeadlineTracker) GoalFor(in Input) float64 {
	goal := d.perInput
	if d.task == dnn.SentencePrediction && in.SentenceLen > 0 {
		if in.SentenceID != d.curSentence {
			d.curSentence = in.SentenceID
			d.spent = 0
		}
		budget := d.perInput * float64(in.SentenceLen)
		remainingWords := float64(in.SentenceLen - in.WordIdx)
		goal = (budget - d.spent) / remainingWords
	}
	goal -= d.overhead
	// A fully exhausted budget still leaves the fastest configuration a
	// fighting chance rather than demanding the impossible.
	min := d.perInput * 0.05
	if goal < min {
		goal = min
	}
	return goal
}

// Observe books the measured latency of the input just processed.
func (d *DeadlineTracker) Observe(in Input, latency float64) {
	if d.task == dnn.SentencePrediction && in.SentenceID == d.curSentence {
		d.spent += latency
	}
}
