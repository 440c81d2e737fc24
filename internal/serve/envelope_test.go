package serve

import (
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// TestStreamsShareEnvelopeThroughEnergyBudgets: k streams co-located on one
// engine share a power envelope of B watts with no coordinator. Each stream
// is only given the paper's own per-input energy budget, its 1/k share of B
// over its deadline window, and decides independently. Every round (one
// burst of k decides through the pool, then k simulated inputs and
// observes) the streams' window-average powers Σ Energy/deadline must stay
// within B in at least 98 % of rounds — in every cell of CPU1 × image
// models × k ∈ {2, 4, 8} × B/k ∈ {20, 30} W × the three contention
// scenarios, with deadlines spread over 0.6–1.4 × the slowest model at
// PMax. ARCHITECTURE.md ("Co-located streams and one power envelope") has
// the measurement this pins, against a greedy power-envelope coordinator.
func TestStreamsShareEnvelopeThroughEnergyBudgets(t *testing.T) {
	prof := testProfile(t)
	top := prof.NumCaps() - 1
	slowest := 0.0
	for m := range prof.Models {
		slowest = max(slowest, prof.At(m, top))
	}
	const inputs = 600
	for _, sc := range contention.Scenarios() {
		for _, k := range []int{2, 4, 8} {
			for _, share := range []float64{20, 30} {
				budget := share * float64(k)
				p := NewPool(prof, core.DefaultOptions(), 2)
				deadlines := make([]float64, k)
				envs := make([]*sim.Env, k)
				streams := make([]workload.Stream, k)
				ops := make([]Op, k)
				for i := range ops {
					deadlines[i] = slowest * (0.6 + 0.8*float64(i)/float64(k-1))
					envs[i] = sim.NewEnv(prof, contention.NewSource(sc, prof.Platform.Kind, int64(100+i)), int64(200+i))
					streams[i] = workload.NewImageStream(inputs, int64(300+i))
					ops[i] = Op{Stream: i, Spec: core.Spec{
						Objective:    core.MaximizeAccuracy,
						Deadline:     deadlines[i],
						EnergyBudget: share * deadlines[i],
					}}
				}
				over := 0
				for r := 0; r < inputs; r++ {
					ops = runBurst(p, ops)
					watts := 0.0
					for i, op := range ops {
						in, _ := streams[i].Next()
						out := envs[i].Step(op.Decision, in, deadlines[i], deadlines[i])
						p.Observe(i, out)
						watts += out.Energy / deadlines[i]
					}
					if watts > budget {
						over++
					}
				}
				p.Close()
				pct := 100 * float64(over) / inputs
				t.Logf("%s k=%d B=%.0fW: window power over B in %.2f%% of rounds", sc, k, budget, pct)
				if pct > 2 {
					t.Errorf("%s k=%d B=%.0fW: window power over B in %.2f%% of rounds, want <= 2%%", sc, k, budget, pct)
				}
			}
		}
	}
}
