// Package datagen produces the synthetic inputs standing in for the paper's
// 147-187 GB data sets (Table I): Zipf-distributed text corpora, HTML pages,
// Gaussian-mixture vectors, Zipf-skewed rating matrices, preferential-
// attachment web graphs and hidden-Markov observation sequences. All
// generators are deterministic in their seed so every experiment is
// reproducible.
package datagen

import (
	"strings"
	"sync"

	"dcbench/internal/sim"
)

// Corpus generates natural-language-like text with a Zipf word frequency
// distribution, the standard model for document collections.
type Corpus struct {
	rng   *sim.RNG
	zipf  *sim.Zipf
	vocab []string
}

// vocabs shares word lists between corpora (every map split builds one):
// pure functions of their size, read-only once stored, a few code-chosen sizes.
var vocabs sync.Map // vocabSize → []string

// NewCorpus builds a corpus with the given vocabulary size.
func NewCorpus(seed uint64, vocabSize int) *Corpus {
	rng := sim.NewRNG(seed)
	c := &Corpus{rng: rng, zipf: sim.NewZipf(rng, vocabSize, 1.05)}
	if v, ok := vocabs.Load(vocabSize); ok {
		c.vocab = v.([]string)
		return c
	}
	c.vocab = make([]string, vocabSize)
	letters := "abcdefghijklmnopqrstuvwxyz"
	for i := range c.vocab {
		// Word length grows slowly with rank, like real vocabularies.
		n := 2 + i%9
		var b strings.Builder
		x := i
		for j := 0; j < n; j++ {
			b.WriteByte(letters[(x+7*j)%26])
			x /= 3
		}
		c.vocab[i] = b.String()
	}
	vocabs.Store(vocabSize, c.vocab)
	return c
}

// word draws one Zipf-distributed word.
func (c *Corpus) word() string { return c.vocab[c.zipf.Next()] }

// WordAt returns the rank-i word, for targeted queries in tests.
func (c *Corpus) WordAt(i int) string { return c.vocab[i] }

// Sentence returns n space-separated Zipf words.
func (c *Corpus) Sentence(n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = c.word()
	}
	return strings.Join(words, " ")
}

// LabeledSentence returns a sentence biased toward a class-specific region
// of the vocabulary, so Naive Bayes and SVM have signal to learn.
func (c *Corpus) LabeledSentence(class, nClasses, n int) string {
	words := make([]string, n)
	seg := len(c.vocab) / nClasses
	for i := range words {
		if c.rng.Float64() < 0.5 {
			// Class-specific word from the class's vocabulary segment.
			words[i] = c.vocab[class*seg+c.rng.Intn(seg)]
		} else {
			words[i] = c.word()
		}
	}
	return strings.Join(words, " ")
}

// HTMLPage wraps sentences in minimal markup, modelling the crawled pages
// used as SVM and HMM input in Table I.
func (c *Corpus) HTMLPage(sentences, wordsPer int) string {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < sentences; i++ {
		b.WriteString("<p>")
		b.WriteString(c.Sentence(wordsPer))
		b.WriteString("</p>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Vectors draws n points of the given dimension from k spherical Gaussian
// clusters with well-separated means; returns points and true cluster ids.
func Vectors(seed uint64, n, dim, k int) ([][]float64, []int) {
	rng := sim.NewRNG(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = 10 * rng.NormFloat64()
		}
	}
	points := make([][]float64, n)
	labels := make([]int, n)
	for i := range points {
		c := rng.Intn(k)
		labels[i] = c
		p := make([]float64, dim)
		for d := range p {
			p[d] = centers[c][d] + rng.NormFloat64()
		}
		points[i] = p
	}
	return points, labels
}

// Rating is one user-item preference.
type Rating struct {
	User, Item int
	Score      float64
}

// Ratings generates a Zipf-skewed rating matrix: popular items attract most
// ratings, and each user has a latent taste that makes scores predictable,
// so collaborative filtering is meaningful rather than noise.
func Ratings(seed uint64, users, items, perUser int) []Rating {
	rng := sim.NewRNG(seed)
	zipf := sim.NewZipf(rng, items, 1.0)
	// Latent 2-factor model.
	uf := make([][2]float64, users)
	for i := range uf {
		uf[i] = [2]float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	itf := make([][2]float64, items)
	for i := range itf {
		itf[i] = [2]float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	var out []Rating
	for u := 0; u < users; u++ {
		seen := map[int]bool{}
		for len(seen) < perUser {
			it := zipf.Next()
			if seen[it] {
				continue
			}
			seen[it] = true
			score := 3 + uf[u][0]*itf[it][0] + uf[u][1]*itf[it][1] + 0.3*rng.NormFloat64()
			if score < 1 {
				score = 1
			}
			if score > 5 {
				score = 5
			}
			out = append(out, Rating{User: u, Item: it, Score: score})
		}
	}
	return out
}

// WebGraph builds a directed graph with preferential attachment, the
// standard heavy-tailed model of the web link structure PageRank runs on.
// Node i links to edgesPer earlier nodes chosen proportionally to in-degree.
func WebGraph(seed uint64, n, edgesPer int) [][]int {
	rng := sim.NewRNG(seed)
	adj := make([][]int, n)
	// targets is a repeated-node list implementing preferential attachment.
	targets := []int{0}
	for i := 1; i < n; i++ {
		m := edgesPer
		if m > i {
			m = i
		}
		seen := map[int]bool{}
		var picked []int
		for len(picked) < m {
			var t int
			if rng.Float64() < 0.15 {
				t = rng.Intn(i) // uniform escape keeps the graph connected
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t == i || seen[t] {
				continue
			}
			seen[t] = true
			picked = append(picked, t)
		}
		adj[i] = picked
		targets = append(targets, picked...)
		targets = append(targets, i)
	}
	return adj
}

// ObservationSeq emits a hidden-Markov observation sequence plus its hidden
// state path, for HMM training and segmentation tests. States follow a
// sticky chain (stay probability 0.8); each state prefers a distinct symbol
// region.
func ObservationSeq(seed uint64, states, symbols, length int) (obs, hidden []int) {
	rng := sim.NewRNG(seed)
	obs = make([]int, length)
	hidden = make([]int, length)
	s := rng.Intn(states)
	seg := symbols / states
	for t := 0; t < length; t++ {
		if rng.Float64() > 0.8 {
			s = rng.Intn(states)
		}
		hidden[t] = s
		if rng.Float64() < 0.7 {
			obs[t] = s*seg + rng.Intn(seg)
		} else {
			obs[t] = rng.Intn(symbols)
		}
	}
	return obs, hidden
}
