package dnn

// This file defines the concrete model families the evaluation uses
// (Table 2 / Table 3): the benchmark networks VGG16, ResNet50, word-RNN and
// BERT for the variability study (Figures 4–5), and the adaptation
// candidate sets — a Sparse ResNet ladder plus a Depth-Nest anytime network
// for image classification, and an RNN width ladder plus a Width-Nest
// anytime network for sentence prediction.
//
// Reference latencies are seconds on CPU2 at its 100 W cap. Accuracies for
// the image family bracket the 90–94 % band visible in Figure 9's accuracy
// panel. Anytime networks trade a small amount of final accuracy for their
// ladder ("Anytime DNNs generally sacrifice accuracy for flexibility",
// §3.5) — each nest stage sits slightly below the traditional model of
// equal latency.

// VGG16 is IMG1 in Table 2.
func VGG16() *Model {
	return &Model{
		Name: "VGG16", Family: "VGG", Task: ImageClassification,
		RefLatency: 0.28, Accuracy: 0.901, QFail: 0.005,
		UtilFactor: 1.0, MemGB: 3.1,
	}
}

// ResNet50 is IMG2 in Table 2 and the subject of Figure 3's power sweep.
func ResNet50() *Model {
	return &Model{
		Name: "ResNet50", Family: "ResNet", Task: ImageClassification,
		RefLatency: 0.103, Accuracy: 0.930, QFail: 0.005,
		UtilFactor: 0.97, MemGB: 2.2,
	}
}

// WordRNN is NLP1 in Table 2: word-level next-token prediction on Penn
// Treebank. RefLatency is per word; sentence latency scales with length,
// which is the dominant variance source in Figure 4.
func WordRNN() *Model {
	return &Model{
		Name: "WordRNN", Family: "RNN", Task: SentencePrediction,
		RefLatency: 0.021, Accuracy: 0.715, QFail: 0.45,
		UtilFactor: 0.88, MemGB: 0.4,
	}
}

// BERT is NLP2 in Table 2: question answering on SQuAD.
func BERT() *Model {
	return &Model{
		Name: "BERT", Family: "BERT", Task: QuestionAnswering,
		RefLatency: 0.41, Accuracy: 0.885, QFail: 0.02,
		UtilFactor: 1.0, MemGB: 2.6,
	}
}

// SparseResNetFamily returns the traditional image-classification candidate
// ladder: five sparsified ResNet variants spanning a 7x latency range and a
// 90.2–94.5 % accuracy band.
func SparseResNetFamily() []*Model {
	specs := []struct {
		name string
		lat  float64
		acc  float64
		mem  float64
	}{
		{"SparseResNet-XS", 0.022, 0.902, 1.5},
		{"SparseResNet-S", 0.040, 0.919, 1.8},
		{"SparseResNet-M", 0.072, 0.931, 2.1},
		{"SparseResNet-L", 0.115, 0.940, 2.4},
		{"SparseResNet-XL", 0.158, 0.945, 2.7},
	}
	out := make([]*Model, 0, len(specs))
	for _, s := range specs {
		out = append(out, &Model{
			Name: s.name, Family: "SparseResNet", Task: ImageClassification,
			RefLatency: s.lat, Accuracy: s.acc, QFail: 0.005,
			UtilFactor: 0.97, MemGB: s.mem,
		})
	}
	return out
}

// DepthNest returns the nested-depth anytime image classifier (Table 3's
// "Depth-Nest", built on the nested architecture of the paper's anytime
// citation). Its outputs ladder steeply — shallow sub-networks genuinely
// lose accuracy — up to a 94.35 % final output, a hair under
// SparseResNet-XL at essentially the same latency: the flexibility tax
// §3.5 describes.
func DepthNest() *Model {
	return &Model{
		Name: "DepthNest", Family: "SparseResNet", Task: ImageClassification,
		RefLatency: 0.165, Accuracy: 0.9435, QFail: 0.005,
		UtilFactor: 0.97, MemGB: 2.8,
		Stages: []Stage{
			{LatencyFrac: 0.10, Accuracy: 0.828},
			{LatencyFrac: 0.17, Accuracy: 0.869},
			{LatencyFrac: 0.28, Accuracy: 0.897},
			{LatencyFrac: 0.42, Accuracy: 0.9185},
			{LatencyFrac: 0.58, Accuracy: 0.930},
			{LatencyFrac: 0.75, Accuracy: 0.9365},
			{LatencyFrac: 0.88, Accuracy: 0.9405},
			{LatencyFrac: 1.0, Accuracy: 0.9435},
		},
	}
}

// ImageCandidates returns the full image-classification candidate set used
// by ALERT in the evaluation: the traditional ladder plus the anytime nest.
func ImageCandidates() []*Model {
	return append(SparseResNetFamily(), DepthNest())
}

// RNNFamily returns the traditional sentence-prediction ladder: four RNN
// widths. Latency is per word; Accuracy is the next-word quality that the
// perplexity mapping in metric.go converts for reporting.
func RNNFamily() []*Model {
	specs := []struct {
		name string
		lat  float64
		acc  float64
	}{
		{"RNN-W1", 0.006, 0.640},
		{"RNN-W2", 0.011, 0.672},
		{"RNN-W3", 0.017, 0.697},
		{"RNN-W4", 0.024, 0.718},
	}
	out := make([]*Model, 0, len(specs))
	for _, s := range specs {
		out = append(out, &Model{
			Name: s.name, Family: "RNN", Task: SentencePrediction,
			RefLatency: s.lat, Accuracy: s.acc, QFail: 0.45,
			UtilFactor: 0.88, MemGB: 0.4,
		})
	}
	return out
}

// WidthNest returns the nested-width anytime RNN (Table 3's "Width-Nest").
func WidthNest() *Model {
	return &Model{
		Name: "WidthNest", Family: "RNN", Task: SentencePrediction,
		RefLatency: 0.025, Accuracy: 0.713, QFail: 0.45,
		UtilFactor: 0.88, MemGB: 0.5,
		Stages: []Stage{
			{LatencyFrac: 0.16, Accuracy: 0.572},
			{LatencyFrac: 0.30, Accuracy: 0.617},
			{LatencyFrac: 0.46, Accuracy: 0.651},
			{LatencyFrac: 0.64, Accuracy: 0.678},
			{LatencyFrac: 0.82, Accuracy: 0.698},
			{LatencyFrac: 1.0, Accuracy: 0.713},
		},
	}
}

// SentenceCandidates returns the full sentence-prediction candidate set.
func SentenceCandidates() []*Model {
	return append(RNNFamily(), WidthNest())
}

// CandidatesFor returns the evaluation candidate set for a task.
func CandidatesFor(task Task) []*Model {
	switch task {
	case SentencePrediction:
		return SentenceCandidates()
	default:
		return ImageCandidates()
	}
}
