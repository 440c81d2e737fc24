package experiment

import (
	"math"
	"strings"
	"testing"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
)

// These integration tests assert the qualitative shapes of the paper's
// evaluation at reduced scale: who wins, roughly by how much, and where the
// crossovers fall. EXPERIMENTS.md records the full-scale numbers.

func TestCellMemoryEnergyShape(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Memory}
	cell, err := RunCell(key, core.MinimizeEnergy, QuickScale(), CellOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alert := cell.Norm[SchemeALERT]
	oracle := cell.Norm[SchemeOracle]
	appOnly := cell.Norm[SchemeAppOnly]
	sysOnly := cell.Norm[SchemeSysOnly]

	// Oracle is the floor and never violates.
	if oracle.ViolatedSettings != 0 {
		t.Errorf("oracle violated %d settings", oracle.ViolatedSettings)
	}
	if alert.NormValue < oracle.NormValue {
		t.Errorf("ALERT (%.3f) below oracle (%.3f)", alert.NormValue, oracle.NormValue)
	}
	// ALERT lands within ~15% of the oracle's energy (the paper reports
	// 93-99% of optimal; our simulated contention is harsher on feedback
	// control; EXPERIMENTS.md records this cell at full scale).
	if alert.NormValue > oracle.NormValue*1.2 {
		t.Errorf("ALERT (%.3f) too far from oracle (%.3f)", alert.NormValue, oracle.NormValue)
	}
	// ALERT does not lose to the static oracle.
	if alert.NormValue > 1.05 {
		t.Errorf("ALERT norm %.3f should not exceed OracleStatic", alert.NormValue)
	}
	// App-only wastes energy wholesale (it cannot move the cap).
	if appOnly.NormValue < 1.5 {
		t.Errorf("App-only norm %.3f suspiciously thrifty", appOnly.NormValue)
	}
	// Sys-only violates accuracy constraints on a large share of settings
	// (it is pinned to the fastest, least accurate model).
	if sysOnly.ViolatedSettings < cell.Norm[SchemeALERT].Settings/3 {
		t.Errorf("Sys-only violated only %d settings", sysOnly.ViolatedSettings)
	}
	// ALERT stays almost violation-free.
	if alert.ViolatedSettings > 2 {
		t.Errorf("ALERT violated %d settings", alert.ViolatedSettings)
	}
}

func TestCellErrorTaskShape(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Memory}
	cell, err := RunCell(key, core.MaximizeAccuracy, QuickScale(), CellOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := cell.Norm[SchemeOracle]
	alert := cell.Norm[SchemeALERT]
	sysOnly := cell.Norm[SchemeSysOnly]
	star := cell.Norm[SchemeALERTStar]

	if oracle.NormValue > 1.0 {
		t.Errorf("oracle error norm %.3f above static", oracle.NormValue)
	}
	// Sys-only's pinned fast model carries much more error than ALERT.
	if sysOnly.NormValue < alert.NormValue*1.15 {
		t.Errorf("Sys-only (%.3f) should trail ALERT (%.3f) clearly",
			sysOnly.NormValue, alert.NormValue)
	}
	// The mean-only ablation violates far more often (Fig. 10's point).
	if star.ViolatedSettings <= alert.ViolatedSettings {
		t.Errorf("ALERT* violations (%d) should exceed ALERT's (%d)",
			star.ViolatedSettings, alert.ViolatedSettings)
	}
}

func TestGPUQuieterThanCPU(t *testing.T) {
	// §5.2: "ALERT has more advantage over OracleStatic on CPUs than on
	// GPUs" because the GPU fluctuates less. Compare ALERT's normalized
	// energy on the Default scenario.
	sc := QuickScale()
	cpu, err := RunCell(CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Default},
		core.MinimizeEnergy, sc, CellOptions{Schemes: []string{SchemeALERT, SchemeOracle}})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := RunCell(CellKey{Platform: "GPU", Task: dnn.ImageClassification, Scenario: contention.Default},
		core.MinimizeEnergy, sc, CellOptions{Schemes: []string{SchemeALERT, SchemeOracle}})
	if err != nil {
		t.Fatal(err)
	}
	// On the quiet GPU the static oracle is near-optimal, so ALERT's
	// normalized value sits near 1; allow generous slack but require the
	// CPU advantage to be at least as large as the GPU's.
	if cpu.Norm[SchemeALERT].NormValue > gpu.Norm[SchemeALERT].NormValue+0.05 {
		t.Errorf("ALERT on CPU (%.3f) should gain at least as much vs static as on GPU (%.3f)",
			cpu.Norm[SchemeALERT].NormValue, gpu.Norm[SchemeALERT].NormValue)
	}
}

func TestFig2Spans(t *testing.T) {
	res, err := RunFig2(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySpan < 15 || res.LatencySpan > 21 {
		t.Errorf("latency span %.1fx, paper: ~18x", res.LatencySpan)
	}
	if res.ErrorSpan < 6.5 || res.ErrorSpan > 9 {
		t.Errorf("error span %.1fx, paper: ~7.8x", res.ErrorSpan)
	}
	if res.EnergySpan < 18 {
		t.Errorf("energy span %.1fx, paper: >20x", res.EnergySpan)
	}
	var hull int
	for _, r := range res.Rows {
		if r.OnHull {
			hull++
		}
	}
	if hull < 3 || hull == len(res.Rows) {
		t.Errorf("hull size %d of %d implausible", hull, len(res.Rows))
	}
	if !strings.Contains(text(t, res.Table()), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 31 {
		t.Errorf("%d power settings, paper sweeps 31", len(res.Rows))
	}
	if res.MinEnergyCap != 40 {
		t.Errorf("min energy at %gW, paper: 40W", res.MinEnergyCap)
	}
	if res.MaxEnergyCap < 56 || res.MaxEnergyCap > 72 {
		t.Errorf("max energy at %gW, paper: 64W", res.MaxEnergyCap)
	}
	if res.MaxOverMin < 1.15 || res.MaxOverMin > 1.45 {
		t.Errorf("max/min energy %.2f, paper: ~1.3", res.MaxOverMin)
	}
	if res.SpeedRatio < 1.9 || res.SpeedRatio > 2.1 {
		t.Errorf("speed ratio %.2f, paper: ~2x", res.SpeedRatio)
	}
	// Latency decreases monotonically with the cap.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Latency >= res.Rows[i-1].Latency {
			t.Fatal("latency not decreasing with power")
		}
	}
}

func TestFigVarianceShape(t *testing.T) {
	quiet, err := RunFigVariance(false, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	loud, err := RunFigVariance(true, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Embedded runs only NLP1; everything else OOMs (Fig. 4 caption).
	var oom int
	for _, b := range quiet.Boxes {
		if b.Platform == "Embedded" {
			if b.Setting == "NLP1" && b.OOM {
				t.Error("NLP1 should fit the embedded board")
			}
			if b.Setting != "NLP1" && !b.OOM {
				t.Errorf("%s should OOM on the embedded board", b.Setting)
			}
		}
		if b.OOM {
			oom++
		}
	}
	if oom != 3 {
		t.Errorf("OOM count %d, want 3", oom)
	}
	// Co-location raises the median and widens the spread (Fig. 5 vs 4).
	for i := range quiet.Boxes {
		q, l := quiet.Boxes[i], loud.Boxes[i]
		if q.OOM {
			continue
		}
		if l.Box.Median < q.Box.Median {
			t.Errorf("%s/%s: contended median below quiet", q.Setting, q.Platform)
		}
		qSpread := q.Box.P90 - q.Box.P10
		lSpread := l.Box.P90 - l.Box.P10
		if lSpread < qSpread {
			t.Errorf("%s/%s: contention narrowed the spread", q.Setting, q.Platform)
		}
	}
	// GPU is fastest for image tasks; Embedded slowest for NLP1.
	find := func(r *FigVarianceResult, set, plat string) VarianceBox {
		for _, b := range r.Boxes {
			if b.Setting == set && b.Platform == plat {
				return b
			}
		}
		t.Fatalf("missing box %s/%s", set, plat)
		return VarianceBox{}
	}
	if find(quiet, "IMG2", "GPU").Box.Median >= find(quiet, "IMG2", "CPU2").Box.Median {
		t.Error("GPU should be fastest on IMG2")
	}
	if find(quiet, "NLP1", "Embedded").Box.Median <= find(quiet, "NLP1", "CPU1").Box.Median {
		t.Error("Embedded should be slowest on NLP1")
	}
}

func TestFig6SingleLayerShape(t *testing.T) {
	res, err := RunFig6(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// §2.3's two headline findings.
	if res.AppOverCombined < 1.2 {
		t.Errorf("App-level oracle should waste noticeably more energy than Combined: %.2f",
			res.AppOverCombined)
	}
	if res.SysInfeasibleBelow < 0.25 || res.SysInfeasibleBelow > 0.55 {
		t.Errorf("Sys-level feasibility crossover at %.2fs, paper: 0.3s", res.SysInfeasibleBelow)
	}
	// The combined oracle meets every setting the App-level oracle meets.
	for _, p := range res.Points {
		if !math.IsInf(p.AppOnly, 1) && math.IsInf(p.Combined, 1) {
			t.Errorf("combined infeasible where app-only feasible at T=%g Q=%g", p.Deadline, p.AccuracyGoal)
		}
		if !math.IsInf(p.Combined, 1) && !math.IsInf(p.AppOnly, 1) && p.Combined > p.AppOnly*1.02 {
			t.Errorf("combined (%.2f) worse than app-only (%.2f)", p.Combined, p.AppOnly)
		}
	}
}

func TestFig9DynamicBehaviour(t *testing.T) {
	res, err := RunFig9(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatal("want ALERT and ALERT-Trad traces")
	}
	alert, trad := res.Traces[0], res.Traces[1]
	// ALERT leans on the anytime network during the burst and keeps
	// accuracy high; ALERT-Trad must drop to small models and lose more.
	if share := alert.AnytimeShare(res.BurstStart, res.BurstEnd); share < 0.3 {
		t.Errorf("ALERT anytime share during burst %.2f, expected heavy use", share)
	}
	aBurst := alert.MeanQuality(res.BurstStart, res.BurstEnd)
	tBurst := trad.MeanQuality(res.BurstStart, res.BurstEnd)
	if aBurst <= tBurst {
		t.Errorf("ALERT burst quality %.4f not above ALERT-Trad %.4f", aBurst, tBurst)
	}
	// Both recover after the burst.
	if alert.MeanQuality(res.BurstEnd, 160) < alert.MeanQuality(0, res.BurstStart)-0.01 {
		t.Error("ALERT did not recover after the burst")
	}
	if trad.MeanQuality(res.BurstEnd, 160) < tBurst {
		t.Error("ALERT-Trad did not recover after the burst")
	}
}

func TestFig10ProbabilisticDesign(t *testing.T) {
	res, err := RunFig10(contention.Memory, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatal("want Standard / Trad / Any groups")
	}
	for _, g := range res.Groups {
		if g.Alert.Mean > g.AlertStar.Mean*1.02 {
			t.Errorf("%s: ALERT perplexity %.1f worse than ALERT* %.1f",
				g.CandidateSet, g.Alert.Mean, g.AlertStar.Mean)
		}
		// Penn Treebank ballpark (Fig. 10's y-axes run ~100-300).
		if g.Alert.Mean < 80 || g.Alert.Mean > 400 {
			t.Errorf("%s: perplexity %.1f outside plausible range", g.CandidateSet, g.Alert.Mean)
		}
	}
}

func TestFig11XiDistributions(t *testing.T) {
	res, err := RunFig11(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histograms) != 3 {
		t.Fatal("want three environments")
	}
	byScenario := map[contention.Scenario]Fig11Histogram{}
	for _, h := range res.Histograms {
		byScenario[h.Scenario] = h
		var total float64
		for _, f := range h.Freq {
			total += f
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%v histogram mass %g", h.Scenario, total)
		}
	}
	// Contended environments shift the fitted mean and spread upward.
	d, m := byScenario[contention.Default], byScenario[contention.Memory]
	if m.MuHat <= d.MuHat {
		t.Error("memory contention should raise the fitted mean")
	}
	if m.SigmaHat <= d.SigmaHat {
		t.Error("memory contention should raise the fitted sigma")
	}
	// Default's observations concentrate near 1 (Fig. 11 top panel).
	if d.Stats.Median < 0.98 || d.Stats.Median > 1.06 {
		t.Errorf("default median xi %g", d.Stats.Median)
	}
	if m.Stats.P90 < 1.3 {
		t.Errorf("memory p90 xi %g, expected substantial slowdowns", m.Stats.P90)
	}
}

func TestTable5CandidateSets(t *testing.T) {
	sc := QuickScale()
	sc.Inputs = 100
	tbl, err := RunTable5(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 platforms x 3 scenarios", len(tbl.Rows))
	}
	hm := tbl.HarmonicMeans(true)
	for _, id := range Table5Schemes {
		if math.IsNaN(hm[id]) || hm[id] <= 0 {
			t.Errorf("%s harmonic mean %g", id, hm[id])
		}
	}
	if !strings.Contains(text(t, tbl.Table()), "Harmonic mean") {
		t.Error("render incomplete")
	}
}

func TestCellDeterministic(t *testing.T) {
	key := CellKey{Platform: "CPU1", Task: dnn.ImageClassification, Scenario: contention.Compute}
	sc := QuickScale()
	sc.Inputs = 80
	opts := CellOptions{Schemes: []string{SchemeALERT}}
	a, err := RunCell(key, core.MinimizeEnergy, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunCell(key, core.MinimizeEnergy, sc, opts)
	if a.Norm[SchemeALERT] != b.Norm[SchemeALERT] {
		t.Error("cell runs not deterministic")
	}
}
