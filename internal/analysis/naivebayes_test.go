package analysis

import (
	"strings"
	"testing"

	"dcbench/internal/datagen"
	"dcbench/internal/sim"
)

func TestNaiveBayesLearnsSeparableClasses(t *testing.T) {
	c := datagen.NewCorpus(1, 2000)
	nb := NewNaiveBayes(3)
	for i := 0; i < 300; i++ {
		class := i % 3
		nb.observe(strings.Fields(c.LabeledSentence(class, 3, 40)), class)
	}
	right := 0
	for i := 0; i < 90; i++ {
		class := i % 3
		if nb.Predict(strings.Fields(c.LabeledSentence(class, 3, 40))) == class {
			right++
		}
	}
	if acc := float64(right) / 90; acc < 0.8 {
		t.Fatalf("accuracy = %v, want >= 0.8", acc)
	}
}

func TestNaiveBayesUnknownWordsHandled(t *testing.T) {
	nb := NewNaiveBayes(2)
	nb.observe([]string{"alpha", "beta"}, 0)
	nb.observe([]string{"gamma", "delta"}, 1)
	// Entirely unseen vocabulary should not crash and should fall back to
	// the prior (both classes equal here, so either answer is fine).
	got := nb.Predict([]string{"zzz", "qqq"})
	if got != 0 && got != 1 {
		t.Fatalf("predict = %d", got)
	}
}

func TestSVMLearnsLinearlySeparableData(t *testing.T) {
	// Points in 2D separated by x0 + x1 = 0.
	var x [][]float64
	var y []int
	rngVals := []float64{-3, -2, -1.5, 1.5, 2, 3}
	for _, a := range rngVals {
		for _, b := range rngVals {
			if a+b == 0 {
				continue // keep a clear margin around the separator
			}
			x = append(x, []float64{a, b})
			if a+b > 0 {
				y = append(y, 1)
			} else {
				y = append(y, -1)
			}
		}
	}
	s := newSVM(2, 0.001)
	s.trainEpochs(x, y, 300)
	if acc := s.accuracy(x, y); acc < 0.95 {
		t.Fatalf("accuracy = %v, want >= 0.95", acc)
	}
}

func TestSVMTextClassification(t *testing.T) {
	c := datagen.NewCorpus(4, 2000)
	dim := 256
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		class := i % 2
		feats := HashFeatures(strings.Fields(c.LabeledSentence(class, 2, 50)), dim)
		x = append(x, feats)
		y = append(y, 2*class-1)
	}
	s := newSVM(dim, 0.001)
	s.trainEpochs(x, y, 30)
	if acc := s.accuracy(x, y); acc < 0.85 {
		t.Fatalf("text accuracy = %v, want >= 0.85", acc)
	}
}

func TestSubGradientDirection(t *testing.T) {
	// On misclassified data the sub-gradient step must reduce hinge loss.
	x := [][]float64{{1, 0}, {-1, 0}}
	y := []int{1, -1}
	w := []float64{-1, 0} // wrong direction
	dw, violations := SubGradient(w, 0, 0.01, x, y)
	if violations != 2 {
		t.Fatalf("violations = %d, want 2", violations)
	}
	// Applying a step against dw should raise the margin of example 0.
	eta := 0.5
	w2 := []float64{w[0] - eta*dw[0], w[1] - eta*dw[1]}
	if w2[0] <= w[0] {
		t.Fatalf("gradient step moved w the wrong way: %v -> %v", w, w2)
	}
}

// newSVM creates an SVM over dim features with regularisation lambda.
func newSVM(dim int, lambda float64) *SVM {
	return &SVM{W: make([]float64, dim), Lambda: lambda}
}

// trainEpochs is the serial Pegasos trainer the tests check Predict with:
// it runs the given number of epochs, visiting examples in a deterministic
// shuffled order per epoch (plain SGD diverges on adversarially ordered
// data).
func (s *SVM) trainEpochs(x [][]float64, y []int, epochs int) {
	t := 1
	rng := sim.NewRNG(uint64(len(x))*2654435761 + 1)
	for e := 0; e < epochs; e++ {
		for _, i := range rng.Perm(len(x)) {
			eta := 1 / (s.Lambda * float64(t))
			t++
			yi := float64(y[i])
			decay := 1 - eta*s.Lambda
			for j := range s.W {
				s.W[j] *= decay
			}
			// The bias is trained as a regularised weight on a constant
			// feature: an unregularised bias can settle far off-centre
			// after the huge early Pegasos steps.
			s.Bias *= decay
			if yi*s.margin(x[i]) < 1 {
				for j, xj := range x[i] {
					s.W[j] += eta * yi * xj
				}
				s.Bias += eta * yi
			}
		}
	}
}

// accuracy returns the fraction of correctly classified examples.
func (s *SVM) accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	right := 0
	for i := range x {
		if s.Predict(x[i]) == y[i] {
			right++
		}
	}
	return float64(right) / float64(len(x))
}

// observe adds one labelled document (a bag of words) to the model: the
// serial trainer the tests check Predict with (the workload loads
// pre-aggregated counts through AddClassDocs and AddWordCount).
func (nb *NaiveBayes) observe(words []string, class int) {
	nb.classDocs[class]++
	nb.totalDocs++
	for _, w := range words {
		id, _ := nb.wordID(w, true)
		nb.wordCounts[class][id]++
		nb.classWords[class]++
	}
}
