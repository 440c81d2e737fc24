package mathx

import (
	"math"
	"sort"
)

// OnlineStats accumulates a running mean in one pass. It is the
// measurement backbone for every experiment: latency, energy, and accuracy
// streams all flow through it.
type OnlineStats struct {
	n    int
	mean float64
}

// Add folds one observation into the accumulator.
func (s *OnlineStats) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// Mean returns the running mean, or 0 before any observation.
func (s *OnlineStats) Mean() float64 { return s.mean }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxStats summarizes a sample the way the paper's whisker plots do:
// 10th/25th/50th/75th/90th percentiles plus mean and full range.
type BoxStats struct {
	Min, P10, P25, Median, P75, P90, Max, Mean float64
	N                                          int
}

// Box computes BoxStats for xs. An empty sample yields all-NaN fields.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		nan := math.NaN()
		return BoxStats{Min: nan, P10: nan, P25: nan, Median: nan, P75: nan, P90: nan, Max: nan, Mean: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	return BoxStats{
		Min:    sorted[0],
		P10:    percentileSorted(sorted, 10),
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		P90:    percentileSorted(sorted, 90),
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		N:      len(sorted),
	}
}

// HarmonicMean returns the harmonic mean of xs, the aggregate the paper uses
// for Table 4's bottom row. Non-positive entries are rejected by returning
// NaN, since a harmonic mean is undefined for them.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
