// Package experiment reproduces every table and figure in the paper's
// evaluation (§2 and §5). Each experiment is a pure function from a Scale
// (stream lengths, constraint-grid density, seed) to a typed result struct,
// so the same code backs the cmd/experiments binary, the integration tests,
// and the benchmark harness. A result's Table method lays it out as a
// Table, whose WriteText and WriteCSV are the only printers.
package experiment

// Scale sets the size of an experiment run. Full reproduces the paper's
// setting counts (35–40 constraint settings per Table 4 cell); Quick is a
// reduced grid for tests and benchmarks.
type Scale struct {
	// Inputs is the stream length per run.
	Inputs int
	// DeadlineFactors multiply the reference latency (the mean latency of
	// the largest anytime DNN under the default environment, Table 3) to
	// form the deadline axis of every constraint grid.
	DeadlineFactors []float64
	// OtherLevels is the number of grid levels on the second constraint
	// axis (accuracy goals or energy budgets).
	OtherLevels int
	// Seed drives all randomness.
	Seed int64
	// Parallelism is the number of constraint settings run concurrently
	// inside each cell. Every setting is seed-deterministic and
	// independent, so results are identical at any value; 0 or 1 runs
	// serially.
	Parallelism int
}

// FullScale matches the paper: 6 deadline factors x 6 levels = 36 settings
// per cell, inside the 35–40 band of Table 4's caption.
func FullScale() Scale {
	return Scale{
		Inputs:          300,
		DeadlineFactors: []float64{0.4, 0.65, 0.9, 1.25, 1.6, 2.0},
		OtherLevels:     6,
		Seed:            42,
	}
}

// QuickScale is a 3x3 grid with short streams for tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Inputs:          120,
		DeadlineFactors: []float64{0.5, 1.0, 1.8},
		OtherLevels:     3,
		Seed:            42,
	}
}
