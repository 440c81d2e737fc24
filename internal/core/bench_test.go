package core

import (
	"testing"

	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
)

// The decide benchmarks measure the two scorers side by side so one run
// carries its own baseline: "naive" is the retained pre-optimization scorer
// (Options.ReferenceScorer) and "fast" is the bound-and-prune SoA scan. Both
// Observe before every Decide, like the real loop. The contracts these
// timings illustrate are held by deterministic tests:
// TestSessionDecideAllocFree (0 allocs/op) and TestScanWorkBound (how many
// candidates the scan scores).

func benchProfile(b *testing.B) *dnn.ProfileTable {
	b.Helper()
	prof, err := dnn.Profile(platform.CPU1(), dnn.ImageCandidates())
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

func benchSpec() Spec {
	return Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.93}
}

func reportRate(b *testing.B) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "decisions/s")
	}
}

// BenchmarkDecide is the headline hot-path benchmark: one full decision on
// the mixed traditional+anytime image candidate set.
func BenchmarkDecide(b *testing.B) {
	prof := benchProfile(b)
	spec := benchSpec()
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30}

	run := func(b *testing.B, reference bool) {
		opts := DefaultOptions()
		opts.ReferenceScorer = reference
		ctl := NewEngine(prof, opts).NewSession()
		ctl.Observe(out)
		ctl.Decide(spec) // warm scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctl.Observe(out)
			ctl.Decide(spec)
		}
		b.StopTimer()
		reportRate(b)
	}

	// The pre-optimization scorer, measured in the same run as its
	// replacement.
	b.Run("naive", func(b *testing.B) { run(b, true) })
	b.Run("fast", func(b *testing.B) { run(b, false) })
}

// BenchmarkDecideZoo is BenchmarkDecide over the 42-model
// all-traditional zoo — the large-space case the SoA layout targets.
func BenchmarkDecideZoo(b *testing.B) {
	prof, err := dnn.Profile(platform.CPU2(), dnn.ImageNetZoo(1))
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Objective: MinimizeEnergy, Deadline: 0.2, AccuracyGoal: 0.9}
	out := sim.Outcome{ObservedXi: 1.05, IdlePower: 20, CapApplied: 60}
	for _, ref := range []struct {
		name string
		on   bool
	}{{"naive", true}, {"fast", false}} {
		b.Run(ref.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.ReferenceScorer = ref.on
			ctl := NewEngine(prof, opts).NewSession()
			ctl.Observe(out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctl.Observe(out)
				ctl.Decide(spec)
			}
			b.StopTimer()
			reportRate(b)
		})
	}
}

// BenchmarkSnapshotRoundTrip measures the migration hot loop — snapshot a
// live session, encode it to the canonical binary form, decode, and restore
// — reporting bytes/snapshot (the wire cost of shipping one stream) and
// snapshots/s (how fast a node can drain its stream table during a rolling
// restart).
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	prof := benchProfile(b)
	eng := NewEngine(prof, DefaultOptions())
	sess := eng.NewSession()
	spec := benchSpec()
	for i := 0; i < 64; i++ {
		sess.Observe(sim.Outcome{ObservedXi: 1.05, IdlePower: 6, CapApplied: 30})
		sess.Decide(spec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wire []byte
	for i := 0; i < b.N; i++ {
		var err error
		wire, err = sess.Snapshot().MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var snap SessionSnapshot
		if err := snap.UnmarshalBinary(wire); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RestoreSession(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(wire)), "bytes/snapshot")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "snapshots/s")
	}
}
