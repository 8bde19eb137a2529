// Package analysis implements the data analysis algorithms underlying the
// paper's eleven workloads (Section II-C): multinomial Naive Bayes, a linear
// SVM, K-means and fuzzy K-means clustering, item-based collaborative
// filtering, a hidden Markov model with Viterbi decoding, PageRank and text
// utilities. These are the library equivalents of the Mahout/Hadoop-example
// implementations the paper measures; internal/workloads distributes them
// over the MapReduce engine. The iterative algorithms are exported as their
// per-iteration steps, which the workloads drive; the whole-run loops live
// in this package's tests as the references the steps are checked against.
package analysis

import "math"

// NaiveBayes is a multinomial Naive Bayes text classifier with Laplace
// smoothing.
type NaiveBayes struct {
	Classes    int
	Vocab      map[string]int
	classDocs  []float64 // documents per class
	classWords []float64 // total words per class
	wordCounts []map[int]float64
	totalDocs  float64
}

// NewNaiveBayes creates an untrained classifier over nClasses classes.
func NewNaiveBayes(nClasses int) *NaiveBayes {
	nb := &NaiveBayes{
		Classes:    nClasses,
		Vocab:      make(map[string]int),
		classDocs:  make([]float64, nClasses),
		classWords: make([]float64, nClasses),
		wordCounts: make([]map[int]float64, nClasses),
	}
	for i := range nb.wordCounts {
		nb.wordCounts[i] = make(map[int]float64)
	}
	return nb
}

func (nb *NaiveBayes) wordID(w string, grow bool) (int, bool) {
	if id, ok := nb.Vocab[w]; ok {
		return id, true
	}
	if !grow {
		return 0, false
	}
	id := len(nb.Vocab)
	nb.Vocab[w] = id
	return id, true
}

// AddClassDocs loads a pre-aggregated document count for a class, as the
// distributed trainer's reduce output supplies it.
func (nb *NaiveBayes) AddClassDocs(class int, n float64) {
	nb.classDocs[class] += n
	nb.totalDocs += n
}

// AddWordCount loads a pre-aggregated (class, word) occurrence count.
func (nb *NaiveBayes) AddWordCount(class int, word string, n float64) {
	id, _ := nb.wordID(word, true)
	nb.wordCounts[class][id] += n
	nb.classWords[class] += n
}

// logPosterior returns the unnormalised log-probability of class c for doc.
func (nb *NaiveBayes) logPosterior(words []string, c int) float64 {
	v := float64(len(nb.Vocab))
	lp := math.Log((nb.classDocs[c] + 1) / (nb.totalDocs + float64(nb.Classes)))
	for _, w := range words {
		id, known := nb.wordID(w, false)
		var count float64
		if known {
			count = nb.wordCounts[c][id]
		}
		lp += math.Log((count + 1) / (nb.classWords[c] + v))
	}
	return lp
}

// Predict returns the most probable class for a document.
func (nb *NaiveBayes) Predict(words []string) int {
	best, bestLP := 0, math.Inf(-1)
	for c := 0; c < nb.Classes; c++ {
		if lp := nb.logPosterior(words, c); lp > bestLP {
			best, bestLP = c, lp
		}
	}
	return best
}
