package experiment

import (
	"fmt"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// Fig2Row is one network in the Figure 2 scatter.
type Fig2Row struct {
	Name     string
	Latency  float64 // measured mean latency, s
	ErrorPct float64 // top-5 error, %
	Energy   float64 // measured mean inference energy, J
	OnHull   bool
}

// Fig2Result is the 42-network tradeoff study of §2.1 on CPU2.
type Fig2Result struct {
	Rows []Fig2Row
	// Spans echo the paper's headline ratios: fastest-to-slowest latency,
	// highest-to-lowest error, and energy span.
	LatencySpan, ErrorSpan, EnergySpan float64
}

// RunFig2 measures every zoo model on CPU2 at the default cap over an
// image stream, as §2.1 does over 50k ImageNet images.
func RunFig2(sc Scale) (*Fig2Result, error) {
	plat := platform.CPU2()
	zoo := dnn.ImageNetZoo(sc.Seed)
	prof, err := dnn.Profile(plat, zoo)
	if err != nil {
		return nil, err
	}
	capIdx := prof.CapIndex(plat.DefaultCap)

	hull := make(map[string]bool)
	for _, m := range dnn.ZooLowerHull(zoo) {
		hull[m.Name] = true
	}

	res := &Fig2Result{}
	for i, m := range zoo {
		cont := contention.NewSource(contention.Default, plat.Kind, sc.Seed+int64(i))
		env := sim.NewEnv(prof, cont, sc.Seed+1000+int64(i))
		stream := workload.NewImageStream(sc.Inputs, sc.Seed+2000)
		var lat, en float64
		n := 0
		for {
			in, ok := stream.Next()
			if !ok {
				break
			}
			// No deadline in this study: measure unconstrained inference.
			goal := prof.At(i, capIdx) * 100
			out := env.Step(sim.Decision{Model: i, Cap: capIdx}, in, goal, 0)
			lat += out.Latency
			en += out.InferEnergy
			n++
		}
		res.Rows = append(res.Rows, Fig2Row{
			Name:     m.Name,
			Latency:  lat / float64(n),
			ErrorPct: 100 * (1 - m.Accuracy),
			Energy:   en / float64(n),
			OnHull:   hull[m.Name],
		})
	}

	minLat, maxLat := res.Rows[0].Latency, res.Rows[0].Latency
	minErr, maxErr := res.Rows[0].ErrorPct, res.Rows[0].ErrorPct
	minEn, maxEn := res.Rows[0].Energy, res.Rows[0].Energy
	for _, r := range res.Rows[1:] {
		minLat, maxLat = min(minLat, r.Latency), max(maxLat, r.Latency)
		minErr, maxErr = min(minErr, r.ErrorPct), max(maxErr, r.ErrorPct)
		minEn, maxEn = min(minEn, r.Energy), max(maxEn, r.Energy)
	}
	res.LatencySpan = maxLat / minLat
	res.ErrorSpan = maxErr / minErr
	res.EnergySpan = maxEn / minEn
	return res, nil
}

// Table lays Figure 2 out as one row per network.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		ID:    "fig2",
		Title: []string{"Figure 2: tradeoffs of 42 image-classification DNNs (CPU2, default power)"},
		Cols:  []Column{{"Model", 0}, {"Latency(s)", 4}, {"Top5Err(%)", 2}, {"Energy(J)", 2}, {"Hull", 0}},
		Notes: []string{fmt.Sprintf("spans: latency %.1fx, error %.1fx, energy %.1fx (paper: 18x, 7.8x, >20x)",
			r.LatencySpan, r.ErrorSpan, r.EnergySpan)},
	}
	for _, row := range r.Rows {
		t.Add(row.Name, row.Latency, row.ErrorPct, row.Energy, mark(row.OnHull))
	}
	return t
}

// mark is the "*" flag column cell.
func mark(b bool) string {
	if b {
		return "*"
	}
	return ""
}

// Fig3Row is one power setting in the Figure 3 sweep.
type Fig3Row struct {
	CapW    float64
	Latency float64 // mean inference latency, s
	Energy  float64 // mean energy per period (run + idle), J
}

// Fig3Result is the ResNet50 power sweep of §2.1 on CPU2 with periodic
// inputs (period = latency at the 40 W cap).
type Fig3Result struct {
	Rows []Fig3Row
	// MinEnergyCap / MaxEnergyCap mark the curve's extremes; the paper
	// finds the minimum at 40 W and the maximum at 64 W (1.3x higher).
	MinEnergyCap, MaxEnergyCap float64
	MaxOverMin                 float64
	SpeedRatio                 float64 // speed(100W)/speed(40W), paper: >2x
}

// RunFig3 sweeps ResNet50 across the 40–100 W range in 2 W steps — the 31
// settings of §2.1.
func RunFig3(sc Scale) (*Fig3Result, error) {
	plat := platform.CPU2()
	plat.PStep = 2 // the sweep uses a finer ladder than the runtime's 5 W
	models := []*dnn.Model{dnn.ResNet50()}
	prof, err := dnn.Profile(plat, models)
	if err != nil {
		return nil, err
	}
	period := prof.At(0, 0) // nominal latency at the 40 W floor

	res := &Fig3Result{}
	for j := range prof.Caps {
		cont := contention.NewSource(contention.Default, plat.Kind, sc.Seed)
		env := sim.NewEnv(prof, cont, sc.Seed+int64(j))
		stream := workload.NewImageStream(sc.Inputs, sc.Seed+2000)
		var lat, en float64
		n := 0
		for {
			in, ok := stream.Next()
			if !ok {
				break
			}
			out := env.Step(sim.Decision{Model: 0, Cap: j}, in, period*100, period)
			lat += out.Latency
			en += out.Energy
			n++
		}
		res.Rows = append(res.Rows, Fig3Row{
			CapW:    prof.Caps[j],
			Latency: lat / float64(n),
			Energy:  en / float64(n),
		})
	}

	minI, maxI := 0, 0
	for i, r := range res.Rows {
		if r.Energy < res.Rows[minI].Energy {
			minI = i
		}
		if r.Energy > res.Rows[maxI].Energy {
			maxI = i
		}
	}
	res.MinEnergyCap = res.Rows[minI].CapW
	res.MaxEnergyCap = res.Rows[maxI].CapW
	res.MaxOverMin = res.Rows[maxI].Energy / res.Rows[minI].Energy
	res.SpeedRatio = res.Rows[0].Latency / res.Rows[len(res.Rows)-1].Latency
	return res, nil
}

// Table lays Figure 3 out as one row per power cap.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		ID:    "fig3",
		Title: []string{"Figure 3: ResNet50 energy/latency across power caps (CPU2, period = latency@40W)"},
		Cols:  []Column{{"Cap(W)", 0}, {"Latency(s)", 4}, {"Energy/period(J)", 3}},
		Notes: []string{
			fmt.Sprintf("min energy @ %.0fW, max energy @ %.0fW (%.2fx), speed 100W/40W = %.2fx",
				r.MinEnergyCap, r.MaxEnergyCap, r.MaxOverMin, r.SpeedRatio),
			"(paper: min @ 40W, max @ 64W at 1.3x, speed ratio > 2x)",
		},
	}
	for _, row := range r.Rows {
		t.Add(row.CapW, row.Latency, row.Energy)
	}
	return t
}
