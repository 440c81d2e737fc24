package scenario

import (
	"fmt"
	"math"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
)

// Compile materializes a scenario for a platform: n ticks with throttle
// ceilings in the platform's watts and arrival gaps scaled by period (the
// nominal seconds per input, normally the base deadline). Compile is pure:
// the same arguments always produce the identical trace, and every
// stochastic component draws from its own seed-derived substream, so adding
// or removing one component never perturbs the draws of the others.
func Compile(spec Spec, plat *platform.Platform, n int, period float64, seed int64) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("scenario %q: trace length %d must be positive", spec.Name, n)
	}
	if period <= 0 {
		return nil, fmt.Errorf("scenario %q: period %g must be positive", spec.Name, period)
	}

	// Independent substreams per component, derived in a fixed order.
	root := mathx.NewRand(seed)
	contRng := root.Split()
	throttleRng := root.Split()
	arrivalRng := root.Split()

	arrival := spec.Arrival.Process
	if arrival == "" {
		arrival = ArrivalClosed
	}
	tr := &Trace{
		Scenario: spec.Name,
		Platform: plat.Name,
		Arrival:  arrival,
		Seed:     seed,
		Period:   period,
		Ticks:    make([]Tick, n),
	}

	compileContention(tr.Ticks, spec.Contention, plat.Kind, contRng)
	if spec.Throttle != nil {
		compileThrottle(tr.Ticks, *spec.Throttle, plat, throttleRng)
	}
	compileArrivals(tr.Ticks, spec.Arrival, period, arrivalRng)
	if spec.Churn != nil {
		compileChurn(tr.Ticks, *spec.Churn)
	}
	return tr, nil
}

// compileContention fills the co-runner fields by cycling the phase
// schedule, running the stock stochastic co-runner model within each phase.
// Each phase instance gets its own seed-derived source, so the environment
// re-converges to the same statistics every time the cycle repeats without
// the phases sharing generator state.
func compileContention(ticks []Tick, phases []ContentionPhase, kind platform.Kind, rng *mathx.Rand) {
	if len(phases) == 0 {
		phases = []ContentionPhase{{Inputs: len(ticks), Environment: "default"}}
	}
	i := 0
	for i < len(ticks) {
		for _, p := range phases {
			env, err := parseEnvironment(p.Environment)
			if err != nil {
				// Validate already rejected unknown names; default is a
				// safe stand-in for belt and braces.
				env = contention.Default
			}
			src := contention.NewActiveSource(env, kind, rng.Int63())
			for k := 0; k < p.Inputs && i < len(ticks); k++ {
				eff := src.Next()
				ticks[i].Slowdown = eff.Slowdown
				ticks[i].ExtraPowerW = eff.ExtraPower
				ticks[i].Active = eff.Active
				i++
			}
			if i >= len(ticks) {
				break
			}
		}
	}
}

// compileThrottle superimposes the periodic cap-ceiling ramp. The depth
// profile is a trapezoid per cycle — ramp down, hold, ramp up — with
// optional relative jitter; the ceiling in watts interpolates between the
// platform's top cap and MinCapFrac of it, floored at the platform minimum.
func compileThrottle(ticks []Tick, th Throttle, plat *platform.Platform, rng *mathx.Rand) {
	onLen := int(th.Duty * float64(th.Period))
	if onLen < 1 {
		onLen = 1
	}
	ramp := th.Ramp
	if ramp > onLen {
		ramp = onLen
	}
	floor := math.Max(plat.PMin, th.MinCapFrac*plat.PMax)
	for i := range ticks {
		// One jitter draw per input, in or out of the window, keeps the
		// sequence alignment independent of the schedule parameters.
		jit := 1 + th.Jitter*rng.NormFloat64()
		pos := i % th.Period
		var depth float64
		switch {
		case pos < onLen:
			if ramp > 0 && pos < ramp {
				depth = float64(pos+1) / float64(ramp)
			} else {
				depth = 1
			}
		case ramp > 0 && pos-onLen < ramp:
			depth = 1 - float64(pos-onLen+1)/float64(ramp)
		}
		if depth <= 0 {
			continue
		}
		depth = mathx.Clamp(depth*jit, 0, 1)
		ticks[i].CapLimitW = plat.PMax - depth*(plat.PMax-floor)
		ticks[i].Active = true
	}
}

// compileArrivals fills the inter-arrival gaps for open-loop processes.
func compileArrivals(ticks []Tick, a Arrival, period float64, rng *mathx.Rand) {
	meanGap := a.MeanGapFactor
	if meanGap <= 0 {
		meanGap = 1
	}
	meanGap *= period

	switch a.Process {
	case ArrivalPeriodic:
		for i := range ticks {
			ticks[i].Gap = meanGap
		}
	case ArrivalPoisson:
		for i := range ticks {
			ticks[i].Gap = rng.Exponential(meanGap)
		}
	case ArrivalMMPP:
		burstGap := a.BurstGapFactor * period
		if a.BurstGapFactor <= 0 {
			burstGap = meanGap / 4
		}
		burstLen := a.BurstInputs
		if burstLen <= 0 {
			burstLen = 40
		}
		calmLen := a.CalmInputs
		if calmLen <= 0 {
			calmLen = 120
		}
		bursting := false
		left := int(rng.Exponential(float64(calmLen))) + 1
		for i := range ticks {
			if left <= 0 {
				bursting = !bursting
				mean := float64(calmLen)
				if bursting {
					mean = float64(burstLen)
				}
				left = int(rng.Exponential(mean)) + 1
			}
			left--
			gap := meanGap
			if bursting {
				gap = burstGap
			}
			ticks[i].Gap = rng.Exponential(gap)
		}
	case ArrivalDiurnal:
		cycle := a.CycleInputs
		if cycle <= 0 {
			cycle = 500
		}
		swing := a.Swing
		if swing == 0 {
			swing = 0.6
		}
		for i := range ticks {
			rate := 1 + swing*math.Sin(2*math.Pi*float64(i)/float64(cycle))
			ticks[i].Gap = rng.Exponential(meanGap / rate)
		}
	default:
		// Closed loop: gaps stay zero; the load generator paces by
		// completion.
	}
}

// compileChurn stamps the active requirement overrides onto each tick,
// cycling the factor lists independently every Every inputs.
func compileChurn(ticks []Tick, c Churn) {
	for i := range ticks {
		phase := i / c.Every
		if len(c.DeadlineFactors) > 0 {
			ticks[i].DeadlineFactor = c.DeadlineFactors[phase%len(c.DeadlineFactors)]
		}
		if len(c.AccuracyDeltas) > 0 {
			ticks[i].AccuracyDelta = c.AccuracyDeltas[phase%len(c.AccuracyDeltas)]
		}
	}
}
