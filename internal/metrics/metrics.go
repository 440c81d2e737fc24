// Package metrics records per-input measurements for one scheme under one
// constraint setting and aggregates them the way the paper's evaluation
// does: per-input constraint violations, the ">10 % of inputs" rule that
// marks a whole setting as violated (Table 4's superscripts), averages
// normalized against OracleStatic, harmonic means across rows, and whisker
// statistics for the Figure 8/10 plots. The serving layer reports through
// the same package: latency percentiles and SLO attainment over Records
// (the load-generator headline numbers), and ServeCounters for the
// concurrent pool's throughput/latency counters.
//
// Semantics worth pinning down:
//
//   - A Record is single-writer: Add is not safe for concurrent use. The
//     concurrent serving path therefore keeps one Record per stream and
//     merges, while ServeCounters — a handful of atomics — are the only
//     metrics shared across goroutines.
//   - A Sample's violation flags are judged against the requirement that
//     was in force for that input; under scenario spec churn the goal
//     moves mid-stream and the flags follow it.
//   - ServeCounters record completed work: RecordDecides runs before the
//     reply unblocks the caller, so any Stats read that follows a
//     completed Decide observes it; Snapshot reads each counter atomically
//     but is not a single atomic cut across counters.
package metrics

import (
	"math"

	"github.com/alert-project/alert/internal/mathx"
)

// Sample is the measurement of one input.
type Sample struct {
	Latency float64
	Goal    float64 // the adjusted deadline this input had to meet
	Energy  float64
	Quality float64
	TrueXi  float64
	Model   int
	Cap     float64
	// Violated flags per-constraint failures for this input.
	LatencyViolated  bool
	AccuracyViolated bool
	EnergyViolated   bool
}

// Violated reports whether any applicable constraint failed.
func (s Sample) Violated() bool {
	return s.LatencyViolated || s.AccuracyViolated || s.EnergyViolated
}

// Record accumulates samples for one (scheme, setting) run.
type Record struct {
	Scheme  string
	Samples []Sample

	lat, en, q mathx.OnlineStats
	violations int
	misses     int
}

// NewRecord creates an empty record for a scheme.
func NewRecord(scheme string) *Record {
	return &Record{Scheme: scheme}
}

// Add folds one sample in.
func (r *Record) Add(s Sample) {
	r.Samples = append(r.Samples, s)
	r.lat.Add(s.Latency)
	r.en.Add(s.Energy)
	r.q.Add(s.Quality)
	if s.Violated() {
		r.violations++
	}
	if s.LatencyViolated {
		r.misses++
	}
}

// N returns the number of samples.
func (r *Record) N() int { return len(r.Samples) }

// AvgLatency returns the mean measured latency.
func (r *Record) AvgLatency() float64 { return r.lat.Mean() }

// AvgEnergy returns the mean per-input energy in joules.
func (r *Record) AvgEnergy() float64 { return r.en.Mean() }

// AvgQuality returns the mean achieved quality.
func (r *Record) AvgQuality() float64 { return r.q.Mean() }

// AvgError returns 1 − mean quality, the paper's error-rate metric.
func (r *Record) AvgError() float64 { return 1 - r.q.Mean() }

// ViolationRate returns the fraction of inputs that violated any
// applicable constraint.
func (r *Record) ViolationRate() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	return float64(r.violations) / float64(len(r.Samples))
}

// DeadlineMissRate returns the fraction of inputs past their goal.
func (r *Record) DeadlineMissRate() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	return float64(r.misses) / float64(len(r.Samples))
}

// SettingViolated applies the paper's rule: a scheme violates a constraint
// setting when more than 10 % of inputs violate it.
func (r *Record) SettingViolated() bool { return r.ViolationRate() > 0.10 }

// SLOAttainment returns the fraction of inputs that met every applicable
// constraint — the serving-layer headline, 1 − ViolationRate.
func (r *Record) SLOAttainment() float64 { return 1 - r.ViolationRate() }

// LatencyPercentile returns the p-th percentile (0–100) of the measured
// latencies, the p50/p95/p99 numbers the load generator reports. It sorts a
// copy per call; callers wanting several percentiles of a large record
// should go through Latencies and mathx directly.
func (r *Record) LatencyPercentile(p float64) float64 {
	return mathx.Percentile(r.Latencies(), p)
}

// Merge folds every sample of other into r, preserving sample order within
// each record. The load generator uses it to aggregate per-stream records
// into one fleet-wide view.
func (r *Record) Merge(other *Record) {
	for _, s := range other.Samples {
		r.Add(s)
	}
}

// Latencies returns the per-input latency series.
func (r *Record) Latencies() []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Latency
	}
	return out
}

// Qualities returns the per-input quality series.
func (r *Record) Qualities() []float64 {
	out := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Quality
	}
	return out
}

// SettingResult is one scheme's aggregate for one constraint setting.
type SettingResult struct {
	Scheme    string
	AvgEnergy float64
	AvgError  float64
	Violated  bool
	// ViolationRate and MissRate echo the per-input rates behind Violated,
	// for reports (scenario sweeps, load tests) that need more resolution
	// than the 10 % rule.
	ViolationRate float64
	MissRate      float64
}

// CellResult aggregates a scheme over a grid of constraint settings into
// one Table 4 cell: the average of per-setting values normalized to
// OracleStatic, with violated settings counted but excluded from the
// average ("those settings' results are not part of the energy average").
type CellResult struct {
	Scheme string
	// NormValue is the mean over non-violated settings of
	// scheme_avg / oraclestatic_avg for the task's objective metric.
	NormValue float64
	// ViolatedSettings is Table 4's superscript.
	ViolatedSettings int
	// Settings is the total number of constraint settings aggregated.
	Settings int
}

// Normalize builds the Table 4 cell for a scheme given parallel slices of
// per-setting results for the scheme and for OracleStatic. useEnergy picks
// the objective metric (true for the minimize-energy task).
func Normalize(scheme []SettingResult, oracleStatic []SettingResult, useEnergy bool) CellResult {
	if len(scheme) != len(oracleStatic) {
		panic("metrics: mismatched setting grids")
	}
	cell := CellResult{Settings: len(scheme)}
	if len(scheme) > 0 {
		cell.Scheme = scheme[0].Scheme
	}
	var sum float64
	var n int
	for i := range scheme {
		if scheme[i].Violated {
			cell.ViolatedSettings++
			continue
		}
		var num, den float64
		if useEnergy {
			num, den = scheme[i].AvgEnergy, oracleStatic[i].AvgEnergy
		} else {
			num, den = scheme[i].AvgError, oracleStatic[i].AvgError
		}
		if den <= 0 || math.IsNaN(num) || math.IsNaN(den) {
			continue
		}
		sum += num / den
		n++
	}
	if n > 0 {
		cell.NormValue = sum / float64(n)
	} else {
		cell.NormValue = math.NaN()
	}
	return cell
}
