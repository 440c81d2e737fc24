package dnn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/alert-project/alert/internal/platform"
)

func TestBenchmarkModelsValid(t *testing.T) {
	// The four Table 2 networks (IMG1, IMG2, NLP1, NLP2).
	for _, m := range []*Model{VGG16(), ResNet50(), WordRNN(), BERT()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestCandidateSetsValid(t *testing.T) {
	if err := ValidateSet(ImageCandidates()); err != nil {
		t.Error(err)
	}
	if err := ValidateSet(SentenceCandidates()); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []*Model{
		{Name: "", RefLatency: 1, Accuracy: 0.9, UtilFactor: 1},
		{Name: "neg-lat", RefLatency: -1, Accuracy: 0.9, UtilFactor: 1},
		{Name: "acc-over", RefLatency: 1, Accuracy: 1.5, UtilFactor: 1},
		{Name: "qfail-over", RefLatency: 1, Accuracy: 0.9, QFail: 0.95, UtilFactor: 1},
		{Name: "bad-util", RefLatency: 1, Accuracy: 0.9, UtilFactor: 0},
		{Name: "stage-order", RefLatency: 1, Accuracy: 0.9, UtilFactor: 1,
			Stages: []Stage{{0.5, 0.8}, {0.3, 0.7}}},
		{Name: "stage-final", RefLatency: 1, Accuracy: 0.9, UtilFactor: 1,
			Stages: []Stage{{0.5, 0.8}, {0.9, 0.9}}},
		{Name: "stage-acc-drop", RefLatency: 1, Accuracy: 0.9, UtilFactor: 1,
			Stages: []Stage{{0.5, 0.85}, {1.0, 0.8}}},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.Name)
		}
	}
}

func TestValidateSetRejectsDuplicatesAndMixedTasks(t *testing.T) {
	a := ResNet50()
	b := ResNet50()
	if err := ValidateSet([]*Model{a, b}); err == nil {
		t.Error("duplicate names should fail")
	}
	if err := ValidateSet([]*Model{ResNet50(), WordRNN()}); err == nil {
		t.Error("mixed tasks should fail")
	}
	if err := ValidateSet(nil); err == nil {
		t.Error("empty set should fail")
	}
}

func TestQualityAtTraditional(t *testing.T) {
	m := ResNet50()
	if got := m.QualityAt(0.99); got != m.QFail {
		t.Errorf("partial execution quality = %g, want QFail", got)
	}
	if got := m.QualityAt(1.0); got != m.Accuracy {
		t.Errorf("complete execution quality = %g, want accuracy", got)
	}
}

func TestQualityAtAnytimeLadder(t *testing.T) {
	m := DepthNest()
	if got := m.QualityAt(0.05); got != m.QFail {
		t.Errorf("before first stage: %g, want QFail", got)
	}
	if got := m.QualityAt(1.0); got != m.Accuracy {
		t.Errorf("full ladder: %g, want final accuracy", got)
	}
	// Monotone non-decreasing in elapsed fraction.
	prev := -1.0
	for f := 0.0; f <= 1.0; f += 0.01 {
		q := m.QualityAt(f)
		if q < prev {
			t.Fatalf("QualityAt not monotone at %g", f)
		}
		prev = q
	}
	// Exactly at a stage boundary the stage counts as delivered.
	if got := m.QualityAt(m.Stages[2].LatencyFrac); got != m.Stages[2].Accuracy {
		t.Errorf("at stage boundary: %g, want %g", got, m.Stages[2].Accuracy)
	}
}

func TestFastestMostAccurateFilters(t *testing.T) {
	set := ImageCandidates()
	if Fastest(set).Name != "SparseResNet-XS" {
		t.Errorf("fastest = %s", Fastest(set).Name)
	}
	if MostAccurate(set).Name != "SparseResNet-XL" {
		t.Errorf("most accurate = %s", MostAccurate(set).Name)
	}
	if n := len(Traditional(set)); n != 5 {
		t.Errorf("traditional count = %d", n)
	}
	if n := len(Anytime(set)); n != 1 {
		t.Errorf("anytime count = %d", n)
	}
}

func TestZooCalibration(t *testing.T) {
	zoo := ImageNetZoo(42)
	if len(zoo) != 42 {
		t.Fatalf("zoo size = %d, want 42 (§2.1)", len(zoo))
	}
	if err := ValidateSet(zoo); err != nil {
		t.Fatal(err)
	}
	minLat, maxLat := math.Inf(1), 0.0
	minErr, maxErr := math.Inf(1), 0.0
	for _, m := range zoo {
		lat, errPct := m.RefLatency, 1-m.Accuracy
		minLat, maxLat = math.Min(minLat, lat), math.Max(maxLat, lat)
		minErr, maxErr = math.Min(minErr, errPct), math.Max(maxErr, errPct)
	}
	if r := maxLat / minLat; r < 15 || r > 21 {
		t.Errorf("latency span %.1fx, paper reports ~18x", r)
	}
	if r := maxErr / minErr; r < 6.5 || r > 9 {
		t.Errorf("error span %.1fx, paper reports ~7.8x", r)
	}
}

func TestZooDeterministic(t *testing.T) {
	a, b := ImageNetZoo(7), ImageNetZoo(7)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].RefLatency != b[i].RefLatency ||
			a[i].Accuracy != b[i].Accuracy {
			t.Fatal("zoo not deterministic under a fixed seed")
		}
	}
}

func TestZooLowerHullDominance(t *testing.T) {
	zoo := ImageNetZoo(42)
	hull := ZooLowerHull(zoo)
	if len(hull) < 3 {
		t.Fatalf("hull too small: %d", len(hull))
	}
	// Hull must be sorted by latency with strictly decreasing error.
	for i := 1; i < len(hull); i++ {
		if hull[i].RefLatency <= hull[i-1].RefLatency {
			t.Error("hull latencies not increasing")
		}
		if hull[i].Accuracy <= hull[i-1].Accuracy {
			t.Error("hull accuracies not increasing")
		}
	}
	// No model may dominate a hull point (faster AND more accurate).
	for _, h := range hull {
		for _, m := range zoo {
			if m.RefLatency < h.RefLatency && m.Accuracy > h.Accuracy {
				t.Errorf("%s dominates hull point %s", m.Name, h.Name)
			}
		}
	}
}

func TestProfileTable(t *testing.T) {
	plat := platform.CPU2()
	prof, err := Profile(plat, ImageCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumModels() != 6 || prof.NumCaps() != len(plat.Caps()) {
		t.Fatalf("table dims %dx%d", prof.NumModels(), prof.NumCaps())
	}
	// Latency decreases with cap; power non-decreasing with cap.
	for i := 0; i < prof.NumModels(); i++ {
		for j := 1; j < prof.NumCaps(); j++ {
			if prof.At(i, j) >= prof.At(i, j-1) {
				t.Fatalf("latency not decreasing for model %d at cap %d", i, j)
			}
			if prof.PowerAt(i, j) < prof.PowerAt(i, j-1) {
				t.Fatalf("power decreasing for model %d at cap %d", i, j)
			}
		}
	}
	// Reference anchoring: ResNet-style model at CPU2 top cap equals its
	// reference latency.
	xl := prof.ModelIndex("SparseResNet-XL")
	if got := prof.At(xl, prof.NumCaps()-1); math.Abs(got-0.158) > 1e-9 {
		t.Errorf("reference latency = %g", got)
	}
}

func TestProfileRejectsOOM(t *testing.T) {
	if _, err := Profile(platform.Embedded(), ImageCandidates()); err == nil {
		t.Error("image models should OOM on the embedded board (Fig. 4)")
	}
	if _, err := Profile(platform.Embedded(), SentenceCandidates()); err != nil {
		t.Errorf("RNN should fit the embedded board: %v", err)
	}
}

func TestCapIndexAndModelIndex(t *testing.T) {
	prof, _ := Profile(platform.CPU1(), ImageCandidates())
	if got := prof.CapIndex(45); prof.Caps[got] != 45 {
		t.Errorf("CapIndex(45) -> %g", prof.Caps[got])
	}
	if got := prof.CapIndex(21); prof.Caps[got] != 20 && prof.Caps[got] != 22.5 {
		t.Errorf("CapIndex(21) -> %g", prof.Caps[got])
	}
	if prof.ModelIndex("nope") != -1 {
		t.Error("unknown model should be -1")
	}
	if idx := prof.ModelIndex("DepthNest"); prof.Models[idx].Name != "DepthNest" {
		t.Error("ModelIndex roundtrip failed")
	}
}

func TestFastestAt(t *testing.T) {
	prof, _ := Profile(platform.CPU1(), ImageCandidates())
	top := prof.NumCaps() - 1
	i := prof.FastestAt(top)
	for j := 0; j < prof.NumModels(); j++ {
		if prof.At(j, top) < prof.At(i, top) {
			t.Fatal("FastestAt not minimal")
		}
	}
}

func TestPerplexityMapping(t *testing.T) {
	// Anchor: the reference quality maps to the reference perplexity.
	if got := PerplexityFromQuality(pplRefQuality); math.Abs(got-pplRefValue) > 1e-9 {
		t.Errorf("reference quality -> perplexity %g, want %g", got, pplRefValue)
	}
	// Monotone decreasing: better quality, lower perplexity.
	if PerplexityFromQuality(0.7) >= PerplexityFromQuality(0.6) {
		t.Error("perplexity should fall as quality rises")
	}
	// Calibration: the top RNN lands in Fig. 10(a)'s 110-160 band.
	top := WordRNN().Accuracy
	if p := PerplexityFromQuality(top); p < 90 || p > 160 {
		t.Errorf("top-model perplexity %g outside the Fig. 10 band", p)
	}
}

func TestQualityAtProperty(t *testing.T) {
	m := DepthNest()
	f := func(a, b float64) bool {
		fa := math.Mod(math.Abs(a), 1.2)
		fb := math.Mod(math.Abs(b), 1.2)
		lo, hi := math.Min(fa, fb), math.Max(fa, fb)
		return m.QualityAt(lo) <= m.QualityAt(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
