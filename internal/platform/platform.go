// Package platform models the four hardware platforms of Table 1 (Embedded,
// CPU1 laptop, CPU2 server, GPU) and their power-management knobs.
//
// On real hardware ALERT actuates Intel RAPL on CPUs and a PyNVML
// power–frequency lookup table on GPUs (§4). This package reproduces the
// *interface contract* those mechanisms give the runtime: a discrete ladder
// of power caps, each implying a deterministic compute speed, plus a
// platform idle power that dominates energy between periodic inputs.
//
// The power→speed law is calibrated so the shape of the paper's Figure 3
// holds: raising the CPU2 cap from 40 W to 100 W doubles speed, the
// energy-per-period curve is non-monotonic with its minimum at the lowest
// cap and its maximum in the middle of the range, and most caps are
// Pareto-suboptimal. We use the classic cube-root frequency/power relation
// speed ∝ (P − P₀)^(1/3), where P₀ absorbs static (leakage + uncore) power.
package platform

import (
	"fmt"
	"math"
)

// Kind distinguishes the two accelerator classes ALERT manages.
type Kind int

const (
	// CPU platforms are actuated through RAPL-style power caps.
	CPU Kind = iota
	// GPU platforms are actuated through a power–frequency lookup table.
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Platform describes one machine from Table 1 together with its calibrated
// simulation parameters. Platforms are immutable; the cap a decision
// applies is the simulator's to enforce (internal/sim).
type Platform struct {
	// Name is the paper's identifier: "Embedded", "CPU1", "CPU2", "GPU".
	Name string
	// Kind selects the actuation mechanism.
	Kind Kind

	// PMin and PMax bound the feasible power-cap range in watts.
	PMin, PMax float64
	// PStep is the cap granularity: 2.5 W on the laptop, 5 W on the server
	// and GPU platforms (§4).
	PStep float64
	// PStatic is P₀ in the speed law; caps at or below it make no forward
	// progress and are excluded from the ladder.
	PStatic float64

	// DefaultCap is the sustained power the machine settles at when no cap
	// is enforced — the "system default" setting the App-only baseline and
	// the Fig. 6 application-level oracle run under. Laptops sustain well
	// below their burst ceiling; servers and GPUs sustain at the top.
	DefaultCap float64

	// DrawCeil is the highest power the inference workload can actually
	// consume: caps above it stop binding. Speed still improves past it
	// (higher caps admit more aggressive turbo bursts without raising the
	// sustained draw), which is what gives Figure 3 its signature shape —
	// energy per period peaks at the ceiling (64 W on CPU2, "the most
	// energy-hungry setting") and falls again toward the top cap while
	// latency keeps improving.
	DrawCeil float64

	// IdlePower is the system power draw while the inference job waits for
	// its next input, with no co-located job running.
	IdlePower float64

	// SpeedScore is the relative compute throughput at PMax. CPU2 defines
	// 1.0; a model whose reference latency (profiled on CPU2 at PMax) is L
	// runs in L/SpeedScore on this platform at PMax.
	SpeedScore float64

	// MemGB bounds model residency: models whose MemGB exceeds this limit
	// fail to load, which is why Table 2's image and QA tasks run out of
	// memory on the Embedded board (Fig. 4 caption).
	MemGB float64

	// BaselineNoise is the lognormal sigma of per-input latency noise in
	// the contention-free environment. GPUs run noticeably quieter than
	// CPUs (§5.2: "The GPU experiences significantly lower dynamic
	// fluctuation"), which is why the static oracle nearly matches ALERT
	// there.
	BaselineNoise float64
}

// Embedded returns the ARM Cortex A-15 board (2 GB DDR3). Only the RNN
// sentence-prediction task fits in memory; everything else OOMs, matching
// Figure 4.
func Embedded() *Platform {
	return &Platform{
		Name:          "Embedded",
		Kind:          CPU,
		PMin:          5,
		PMax:          15,
		PStep:         2.5,
		PStatic:       2.0,
		DefaultCap:    12.5,
		DrawCeil:      15,
		IdlePower:     2.5,
		SpeedScore:    0.06,
		MemGB:         2,
		BaselineNoise: 0.022,
	}
}

// CPU1 returns the Core i7 laptop (16 GB DDR4).
func CPU1() *Platform {
	return &Platform{
		Name:          "CPU1",
		Kind:          CPU,
		PMin:          10,
		PMax:          45,
		PStep:         2.5,
		PStatic:       6.5,
		DefaultCap:    30,
		DrawCeil:      45,
		IdlePower:     4.5,
		SpeedScore:    1.0,
		MemGB:         16,
		BaselineNoise: 0.020,
	}
}

// CPU2 returns the Xeon Gold 6126 server (192 GB DDR4). Its cap range and
// the 2x speed ratio between 100 W and 40 W match Figure 3. PStatic is
// derived from that ratio: (100−P₀) = 8·(40−P₀) ⇒ P₀ ≈ 31.4 W.
func CPU2() *Platform {
	return &Platform{
		Name:          "CPU2",
		Kind:          CPU,
		PMin:          40,
		PMax:          100,
		PStep:         5,
		PStatic:       31.43,
		DefaultCap:    100,
		DrawCeil:      64,
		IdlePower:     26,
		SpeedScore:    1.0,
		MemGB:         192,
		BaselineNoise: 0.018,
	}
}

// GPUPlatform returns the RTX 2080 machine. Its caps stand for the power
// levels of the paper's power–frequency table; the quieter noise floor
// reflects the paper's observation that the GPU sees far less run-to-run
// variance.
func GPUPlatform() *Platform {
	return &Platform{
		Name:          "GPU",
		Kind:          GPU,
		PMin:          90,
		PMax:          215,
		PStep:         5,
		PStatic:       55,
		DefaultCap:    215,
		DrawCeil:      160,
		IdlePower:     38,
		SpeedScore:    7.5,
		MemGB:         8,
		BaselineNoise: 0.006,
	}
}

// All returns the four platforms in Table 1 order.
func All() []*Platform {
	return []*Platform{Embedded(), CPU1(), CPU2(), GPUPlatform()}
}

// ByName looks a platform up by its Table 1 identifier.
func ByName(name string) (*Platform, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("platform: unknown platform %q", name)
}

// Caps returns the discrete cap ladder from PMin to PMax inclusive in PStep
// increments. The slice is freshly allocated on each call so callers may
// take ownership.
func (p *Platform) Caps() []float64 {
	var caps []float64
	// Walk in integer step counts to avoid accumulating float error over
	// long ladders (the GPU ladder has 26 rungs).
	n := int(math.Round((p.PMax-p.PMin)/p.PStep)) + 1
	for i := 0; i < n; i++ {
		caps = append(caps, p.PMin+float64(i)*p.PStep)
	}
	return caps
}

// Speed returns the relative compute speed at the given cap, normalized so
// Speed(PMax) == SpeedScore. Caps below PMin are treated as PMin; the
// cap ladder never holds them, but defensive clamping keeps the math total.
func (p *Platform) Speed(cap float64) float64 {
	cap = clamp(cap, p.PMin, p.PMax)
	return p.SpeedScore * math.Cbrt((cap-p.PStatic)/(p.PMax-p.PStatic))
}

// InferencePower returns the power actually drawn while inferring under the
// given cap: the cap (shaved by the small headroom the governor leaves)
// while it binds, saturating at the workload's draw ceiling above that.
func (p *Platform) InferencePower(cap float64) float64 {
	const headroom = 0.98
	w := clamp(cap, p.PMin, p.PMax)
	if w > p.DrawCeil {
		w = p.DrawCeil
	}
	return w * headroom
}

// Fits reports whether a model with the given resident-set size can load.
func (p *Platform) Fits(memGB float64) bool {
	return memGB <= p.MemGB
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
