package experiment

import (
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/mathx"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/sim"
	"github.com/alert-project/alert/internal/workload"
)

// VarianceBox is one boxplot of Figures 4/5: per-input latency statistics
// for one benchmark task on one platform.
type VarianceBox struct {
	Setting  string // IMG1 / IMG2 / NLP1 / NLP2
	Platform string
	Box      mathx.BoxStats
	OOM      bool // the model does not fit this platform's memory (Fig. 4 caption)
}

// FigVarianceResult is the §2.2 variability study: Figure 4 when Contended
// is false, Figure 5 when true.
type FigVarianceResult struct {
	Contended bool
	Boxes     []VarianceBox
}

// settingIDs maps the paper's setting labels to benchmark models.
func settingIDs() []struct {
	id    string
	model *dnn.Model
} {
	return []struct {
		id    string
		model *dnn.Model
	}{
		{"IMG1", dnn.VGG16()},
		{"IMG2", dnn.ResNet50()},
		{"NLP1", dnn.WordRNN()},
		{"NLP2", dnn.BERT()},
	}
}

// RunFigVariance measures per-input inference latency for every Table 2
// task on every platform, without (Fig. 4) or with (Fig. 5) a co-located
// job. For NLP1, one "input" is one sentence — the per-word RNN cost is
// nearly constant and the large variance the paper observes comes from
// sentence length.
func RunFigVariance(contended bool, sc Scale) (*FigVarianceResult, error) {
	res := &FigVarianceResult{Contended: contended}
	scenario := contention.Default
	if contended {
		scenario = contention.Memory
	}
	for _, s := range settingIDs() {
		for _, plat := range platform.All() {
			box := VarianceBox{Setting: s.id, Platform: plat.Name}
			if !plat.Fits(s.model.MemGB) {
				box.OOM = true
				res.Boxes = append(res.Boxes, box)
				continue
			}
			prof, err := dnn.Profile(plat, []*dnn.Model{s.model})
			if err != nil {
				return nil, err
			}
			capIdx := prof.CapIndex(plat.DefaultCap)
			cont := contention.NewSource(scenario, plat.Kind, sc.Seed+7)
			env := sim.NewEnv(prof, cont, sc.Seed+11)
			stream := workload.NewStream(s.model.Task, sc.Inputs, sc.Seed+13)

			var lats []float64
			sentenceLat := 0.0
			for {
				in, ok := stream.Next()
				if !ok {
					break
				}
				goal := prof.At(0, capIdx) * 1000
				out := env.Step(sim.Decision{Model: 0, Cap: capIdx}, in, goal, 0)
				if s.model.Task == dnn.SentencePrediction {
					sentenceLat += out.Latency
					if in.LastWord() {
						lats = append(lats, sentenceLat)
						sentenceLat = 0
					}
					continue
				}
				lats = append(lats, out.Latency)
			}
			box.Box = mathx.Box(lats)
			res.Boxes = append(res.Boxes, box)
		}
	}
	return res, nil
}

// Table lays Figure 4 or 5 out as one row per (task, platform) box.
func (r *FigVarianceResult) Table() *Table {
	t := &Table{
		ID:    "fig4",
		Title: []string{"Figure 4: latency variance across inputs and hardware (no co-located jobs)"},
		Cols: append([]Column{{"Task", 0}, {"Platform", 0}},
			cols(4, "p10(s)", "p25(s)", "median(s)", "p75(s)", "p90(s)")...),
	}
	if r.Contended {
		t.ID, t.Title = "fig5", []string{"Figure 5: latency variance with co-located jobs"}
	}
	for _, box := range r.Boxes {
		if box.OOM {
			t.Add(box.Setting, box.Platform, "OOM")
			continue
		}
		t.Add(box.Setting, box.Platform, box.Box.P10, box.Box.P25, box.Box.Median, box.Box.P75, box.Box.P90)
	}
	return t
}
