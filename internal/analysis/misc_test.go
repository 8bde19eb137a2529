package analysis

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dcbench/internal/datagen"
)

// --- ItemCF ---

func TestItemCFCosineProperties(t *testing.T) {
	cf := NewItemCF(10)
	cf.Add(0, 1, 5)
	cf.Add(0, 2, 5)
	cf.Add(1, 1, 3)
	cf.Add(1, 2, 3)
	cf.Add(2, 3, 4)
	// Items 1 and 2 share identical raters: cosine 1.
	if s := cf.Cosine(1, 2); math.Abs(s-1) > 1e-12 {
		t.Fatalf("cosine(1,2) = %v, want 1", s)
	}
	// No co-raters: cosine 0.
	if s := cf.Cosine(1, 3); s != 0 {
		t.Fatalf("cosine(1,3) = %v, want 0", s)
	}
	// Symmetry.
	if cf.Cosine(1, 2) != cf.Cosine(2, 1) {
		t.Fatal("cosine not symmetric")
	}
}

func TestItemCFPredictsLatentStructure(t *testing.T) {
	ratings := datagen.Ratings(6, 60, 80, 20)
	cf := NewItemCF(20)
	// Hold out every 10th rating for evaluation.
	var held []datagen.Rating
	for i, r := range ratings {
		if i%10 == 0 {
			held = append(held, r)
		} else {
			cf.Add(r.User, r.Item, r.Score)
		}
	}
	var absErr, n float64
	for _, r := range held {
		if p, ok := cf.Predict(r.User, r.Item); ok {
			absErr += math.Abs(p - r.Score)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no predictions possible")
	}
	if mae := absErr / n; mae > 1.2 {
		t.Fatalf("MAE = %v, want <= 1.2 on latent-structured data", mae)
	}
}

func TestItemCFRecommendExcludesSeen(t *testing.T) {
	ratings := datagen.Ratings(7, 30, 40, 10)
	cf := NewItemCF(10)
	seen := map[int]bool{}
	for _, r := range ratings {
		cf.Add(r.User, r.Item, r.Score)
		if r.User == 0 {
			seen[r.Item] = true
		}
	}
	for _, rec := range cf.Recommend(0, 5) {
		if seen[rec.Item] {
			t.Fatalf("recommended already-rated item %d", rec.Item)
		}
	}
}

func TestItemCFSimilarCapped(t *testing.T) {
	cf := NewItemCF(3)
	for u := 0; u < 10; u++ {
		for it := 0; it < 8; it++ {
			cf.Add(u, it, float64(1+(u+it)%5))
		}
	}
	if got := len(cf.similar(0)); got > 3 {
		t.Fatalf("similar list = %d, want <= 3", got)
	}
}

// --- HMM ---

func TestViterbiRecoversStickyPath(t *testing.T) {
	obs, hidden := datagen.ObservationSeq(8, 3, 30, 2000)
	h := trainSupervised(3, 30, [][]int{obs}, [][]int{hidden})
	path, _ := h.Viterbi(obs)
	right := 0
	for i := range path {
		if path[i] == hidden[i] {
			right++
		}
	}
	if acc := float64(right) / float64(len(path)); acc < 0.6 {
		t.Fatalf("viterbi accuracy = %v, want >= 0.6", acc)
	}
}

func TestViterbiDeterministicChain(t *testing.T) {
	// Two states, each deterministically emitting its own symbol.
	h := NewHMM(2, 2)
	// Emissions dominate transitions so the decoded path must follow the
	// observations exactly (no tie between staying and switching).
	eBig, eSmall := math.Log(0.99), math.Log(0.01)
	aBig, aSmall := math.Log(0.9), math.Log(0.1)
	h.LogPi = []float64{math.Log(0.5), math.Log(0.5)}
	h.LogA = [][]float64{{aBig, aSmall}, {aSmall, aBig}}
	h.LogB = [][]float64{{eBig, eSmall}, {eSmall, eBig}}
	obs := []int{0, 0, 1, 1, 1, 0}
	path, lp := h.Viterbi(obs)
	want := []int{0, 0, 1, 1, 1, 0}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if lp >= 0 {
		t.Fatalf("log-prob = %v, want negative", lp)
	}
}

func TestViterbiPathAtLeastAsLikelyAsTruth(t *testing.T) {
	// Property: the Viterbi path's joint log-prob >= the true path's.
	if err := quick.Check(func(seed uint64) bool {
		obs, hidden := datagen.ObservationSeq(seed, 3, 12, 60)
		h := trainSupervised(3, 12, [][]int{obs}, [][]int{hidden})
		path, lp := h.Viterbi(obs)
		return lp >= h.jointLogProb(obs, hidden)-1e-9 && len(path) == len(obs)
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardLikelihoodGEViterbi(t *testing.T) {
	obs, hidden := datagen.ObservationSeq(4, 3, 20, 100)
	h := trainSupervised(3, 20, [][]int{obs}, [][]int{hidden})
	_, viterbiLP := h.Viterbi(obs)
	if total := h.logLikelihood(obs); total < viterbiLP-1e-9 {
		t.Fatalf("forward LL %v < viterbi %v", total, viterbiLP)
	}
}

func TestEmptyObservation(t *testing.T) {
	h := NewHMM(2, 3)
	if path, lp := h.Viterbi(nil); path != nil || lp != 0 {
		t.Fatal("empty observation should be trivial")
	}
}

// jointLogProb scores a specific path for the property test.
func (h *HMM) jointLogProb(obs, path []int) float64 {
	lp := h.LogPi[path[0]] + h.LogB[path[0]][obs[0]]
	for t := 1; t < len(obs); t++ {
		lp += h.LogA[path[t-1]][path[t]] + h.LogB[path[t]][obs[t]]
	}
	return lp
}

// --- PageRank ---

func TestPageRankSumsToOne(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := datagen.WebGraph(seed, 150, 3)
		ranks, _ := pageRank(g, 0.85, 50, 1e-10)
		sum := 0.0
		for _, r := range ranks {
			if r < 0 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1) < 1e-6
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPageRankHubsRankHigher(t *testing.T) {
	g := datagen.WebGraph(2, 500, 4)
	ranks, _ := pageRank(g, 0.85, 100, 1e-12)
	indeg := make([]int, len(g))
	for _, outs := range g {
		for _, t2 := range outs {
			indeg[t2]++
		}
	}
	maxIn, maxNode := 0, 0
	for i, d := range indeg {
		if d > maxIn {
			maxIn, maxNode = d, i
		}
	}
	// The highest in-degree node should rank above the median node.
	above := 0
	for _, r := range ranks {
		if ranks[maxNode] > r {
			above++
		}
	}
	if frac := float64(above) / float64(len(ranks)); frac < 0.95 {
		t.Fatalf("hub only above %v of nodes", frac)
	}
}

func TestPageRankConvergesOnCycle(t *testing.T) {
	g := [][]int{{1}, {2}, {0}}
	ranks, iters := pageRank(g, 0.85, 200, 1e-12)
	for _, r := range ranks {
		if math.Abs(r-1.0/3) > 1e-6 {
			t.Fatalf("cycle ranks = %v, want uniform", ranks)
		}
	}
	if iters >= 200 {
		t.Fatal("did not converge")
	}
}

func TestPageRankDanglingMassConserved(t *testing.T) {
	g := [][]int{{1}, {}} // node 1 dangles
	ranks := []float64{0.5, 0.5}
	next := PageRankStep(g, ranks, 0.85)
	sum := next[0] + next[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mass leaked: sum = %v", sum)
	}
}

// --- Text ---

func TestTokenizeStripsMarkup(t *testing.T) {
	toks := Tokenize("<html><p>Hello, World 42!</p></html>")
	want := []string{"hello", "world", "42"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", toks, want)
		}
	}
}

func TestTokenizeEmptyAndPunctuation(t *testing.T) {
	if toks := Tokenize("...!!!"); len(toks) != 0 {
		t.Fatalf("tokens = %v, want none", toks)
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Fatalf("tokens = %v, want none", toks)
	}
}

func TestHashFeaturesUnitNorm(t *testing.T) {
	if err := quick.Check(func(words []string) bool {
		var clean []string
		for _, w := range words {
			if w != "" {
				clean = append(clean, w)
			}
		}
		v := HashFeatures(clean, 64)
		var n float64
		for _, x := range v {
			n += x * x
		}
		if len(clean) == 0 {
			return n == 0
		}
		return math.Abs(n-1) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refHashFeatures is HashFeatures as it was before it became
// bucketFeatures over HashBuckets, kept verbatim as the oracle.
func refHashFeatures(tokens []string, dim int) []float64 {
	v := make([]float64, dim)
	for _, t := range tokens {
		h := uint32(2166136261)
		for i := 0; i < len(t); i++ {
			h ^= uint32(t[i])
			h *= 16777619
		}
		v[h%uint32(dim)]++
	}
	// L2 normalise so SGD step sizes are comparable across documents.
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n > 0 {
		n = 1 / math.Sqrt(n)
		for i := range v {
			v[i] *= n
		}
	}
	return v
}

// TestBucketFeaturesMatchHashFeatures: rebuilding a document's vector from
// its stored bucket indices gives the bits the one-step hashing gave, on
// the pages the SVM workload trains on and at the index type's limits.
func TestBucketFeaturesMatchHashFeatures(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		c := datagen.NewCorpus(seed, 2000)
		for doc := 0; doc < 20; doc++ {
			tokens := Tokenize(c.HTMLPage(1, 15) + " " + c.LabeledSentence(doc%2, 2, 40))
			for _, dim := range []int{1, 7, 256, 1 << 16} {
				got, want := bucketFeatures(HashBuckets(tokens, dim), dim), refHashFeatures(tokens, dim)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(HashFeatures(tokens, dim), want) {
					t.Fatalf("seed %d doc %d dim %d: features differ from the reference", seed, doc, dim)
				}
			}
		}
	}
	if got := bucketFeatures(HashBuckets(nil, 8), 8); !reflect.DeepEqual(got, make([]float64, 8)) {
		t.Fatalf("no tokens: %v, want zeros", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a dimension beyond the uint16 index did not panic")
		}
	}()
	HashBuckets([]string{"a"}, 1<<16+1)
}

// trainSupervised is the serial trainer the HMM tests build models with:
// smoothed maximum-likelihood counts over observation/state pairs, loaded
// through SetFromCounts as the distributed trainer's reduce side does.
func trainSupervised(states, symbols int, seqs [][]int, paths [][]int) *HMM {
	h := NewHMM(states, symbols)
	pi := make([]float64, states)
	a := make([][]float64, states)
	b := make([][]float64, states)
	for s := range a {
		a[s] = make([]float64, states)
		b[s] = make([]float64, symbols)
	}
	for i, obs := range seqs {
		path := paths[i]
		pi[path[0]]++
		for t, o := range obs {
			b[path[t]][o]++
			if t > 0 {
				a[path[t-1]][path[t]]++
			}
		}
	}
	h.SetFromCounts(pi, a, b)
	return h
}

// logLikelihood computes the forward-algorithm log-likelihood of obs.
func (h *HMM) logLikelihood(obs []int) float64 {
	n := len(obs)
	if n == 0 {
		return 0
	}
	alpha := make([]float64, h.States)
	for s := 0; s < h.States; s++ {
		alpha[s] = h.LogPi[s] + h.LogB[s][obs[0]]
	}
	next := make([]float64, h.States)
	for t := 1; t < n; t++ {
		for s := 0; s < h.States; s++ {
			acc := math.Inf(-1)
			for q := 0; q < h.States; q++ {
				acc = logAdd(acc, alpha[q]+h.LogA[q][s])
			}
			next[s] = acc + h.LogB[s][obs[t]]
		}
		alpha, next = next, alpha
	}
	total := math.Inf(-1)
	for s := 0; s < h.States; s++ {
		total = logAdd(total, alpha[s])
	}
	return total
}

func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// pageRank iterates until the L1 change is below tol or maxIters is
// reached, returning the ranks and the iteration count.
func pageRank(adj [][]int, d float64, maxIters int, tol float64) ([]float64, int) {
	n := len(adj)
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 1; it <= maxIters; it++ {
		next := PageRankStep(adj, ranks, d)
		delta := 0.0
		for i := range next {
			delta += math.Abs(next[i] - ranks[i])
		}
		ranks = next
		if delta < tol {
			return ranks, it
		}
	}
	return ranks, maxIters
}
