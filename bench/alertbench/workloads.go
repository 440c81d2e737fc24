package main

import (
	"fmt"
	"sort"

	"github.com/alert-project/alert"
	"github.com/alert-project/alert/internal/dnn"
)

// workloadDef is one closed-loop traffic shape. Every stream is a caller
// that waits for its decision before observing and deciding again, so the
// number in flight is exactly Drivers (× Batch for the batch wire).
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json's
	// "why"); bench/README.md has the long form.
	Why      string
	Platform func() *alert.Platform
	Task     dnn.Task
	Streams  int
	Drivers  int
	// Batch is 0 for binwire singles through client.Client, or the number
	// of a driver's own streams sent as one JSON DecideBatch per iteration
	// (followed by that many JSON Observes).
	Batch int
}

func (w workloadDef) models() []*alert.Model { return dnn.CandidatesFor(w.Task) }

// wire names the transport the drivers use, for the header.
func (w workloadDef) wire() string {
	if w.Batch > 0 {
		return fmt.Sprintf("json-batch%d", w.Batch)
	}
	return "binwire"
}

// workloads is the fixed set BENCHMARK.json names. The sizes are the
// ISSUE's; see bench/README.md for the prototype numbers behind them.
var workloads = []workloadDef{
	{
		Name:     "loop-binwire",
		Why:      "CPU1 x 210 image candidates, 1024 streams, 64 in flight over binwire: the uncached scan, shard hop, group commit and client are all on the clock at once",
		Platform: alert.CPU1, Task: dnn.ImageClassification,
		Streams: 1024, Drivers: 64,
	},
	{
		Name:     "serial-binwire-small",
		Why:      "Embedded x 55 sentence candidates, 2 in flight: no coalescing and a ~4 us scan, so client, binwire, dispatcher and syscalls are the latency; a scan speed-up predicts no change",
		Platform: alert.Embedded, Task: dnn.SentencePrediction,
		Streams: 1024, Drivers: 2,
	},
	{
		Name:     "loop-json-batch",
		Why:      "same gate and pool through the JSON codec and the batch copy chain: 2 drivers, one DecideBatch of 64 then 64 Observes; binwire workloads bypass all of it",
		Platform: alert.CPU1, Task: dnn.ImageClassification,
		Streams: 1024, Drivers: 2, Batch: 64,
	},
	{
		Name:     "loop-binwire-100k",
		Why:      "102400 streams, 64 in flight: the session table is far past the last-level cache and every loop touches a cold session; session-size changes move only this workload",
		Platform: alert.CPU1, Task: dnn.ImageClassification,
		Streams: 102400, Drivers: 64,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// baseSpec follows cmd/alertload's rule: minimize energy under a deadline
// of 1.25 x the slowest candidate's latency at the top cap, with accuracy
// goal 0.92 for image and the candidate set's median accuracy for sentence
// (0.92 is outside the sentence ladder's range).
func baseSpec(plat *alert.Platform, task dnn.Task, models []*alert.Model) alert.Spec {
	slowest := 0.0
	accs := make([]float64, 0, len(models))
	for _, m := range models {
		if lat := m.RefLatency / plat.Speed(plat.PMax); lat > slowest {
			slowest = lat
		}
		accs = append(accs, m.Accuracy)
	}
	sort.Float64s(accs)
	goal := 0.92
	if task == dnn.SentencePrediction {
		goal = accs[len(accs)/2]
	}
	return alert.Spec{Objective: alert.MinimizeEnergy, Deadline: 1.25 * slowest, AccuracyGoal: goal}
}
