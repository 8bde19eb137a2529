package datagen

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCorpusDeterministic(t *testing.T) {
	a, b := NewCorpus(5, 1000), NewCorpus(5, 1000)
	if a.Sentence(50) != b.Sentence(50) {
		t.Fatal("same seed produced different text")
	}
	// One word list per size, shared; the draws stay per-corpus.
	if c := NewCorpus(6, 1000); &c.vocab[0] != &a.vocab[0] {
		t.Error("two corpora of one vocabulary size built two word lists")
	} else if c.Sentence(50) == NewCorpus(5, 1000).Sentence(50) {
		t.Error("different seeds over the shared word list produced the same text")
	}
}

func TestCorpusZipfSkew(t *testing.T) {
	c := NewCorpus(1, 5000)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[c.word()]++
	}
	top := c.WordAt(0)
	deep := c.WordAt(4000)
	if counts[top] <= counts[deep] {
		t.Fatalf("no skew: top=%d deep=%d", counts[top], counts[deep])
	}
}

func TestLabeledSentencesSeparable(t *testing.T) {
	c := NewCorpus(3, 1000)
	// Class 0 sentences should use early-vocabulary words far more often
	// than class 4 sentences do.
	early := func(s string) int {
		n := 0
		for _, w := range strings.Fields(s) {
			for i := 0; i < 200; i++ {
				if w == c.WordAt(i) {
					n++
					break
				}
			}
		}
		return n
	}
	e0, e4 := 0, 0
	for i := 0; i < 20; i++ {
		e0 += early(c.LabeledSentence(0, 5, 30))
		e4 += early(c.LabeledSentence(4, 5, 30))
	}
	if e0 <= e4 {
		t.Fatalf("classes not separable: e0=%d e4=%d", e0, e4)
	}
}

func TestHTMLPageStructure(t *testing.T) {
	c := NewCorpus(9, 100)
	page := c.HTMLPage(3, 5)
	if !strings.HasPrefix(page, "<html>") || !strings.HasSuffix(page, "</html>") {
		t.Fatal("malformed page")
	}
	if strings.Count(page, "<p>") != 3 {
		t.Fatalf("paragraphs = %d, want 3", strings.Count(page, "<p>"))
	}
}

func TestVectorsClustered(t *testing.T) {
	pts, labels := Vectors(7, 500, 8, 4)
	if len(pts) != 500 || len(labels) != 500 {
		t.Fatal("wrong counts")
	}
	// Mean intra-cluster distance must be well below inter-cluster.
	centroid := func(c int) []float64 {
		m := make([]float64, 8)
		n := 0
		for i, p := range pts {
			if labels[i] == c {
				for d := range m {
					m[d] += p[d]
				}
				n++
			}
		}
		for d := range m {
			m[d] /= float64(n)
		}
		return m
	}
	d2 := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return s
	}
	c0, c1 := centroid(0), centroid(1)
	intra := 0.0
	n := 0
	for i, p := range pts {
		if labels[i] == 0 {
			intra += d2(p, c0)
			n++
		}
	}
	intra /= float64(n)
	if inter := d2(c0, c1); inter < 4*intra {
		t.Fatalf("clusters overlap: inter=%v intra=%v", inter, intra)
	}
}

func TestRatingsBounds(t *testing.T) {
	rs := Ratings(11, 50, 200, 10)
	if len(rs) != 500 {
		t.Fatalf("ratings = %d, want 500", len(rs))
	}
	for _, r := range rs {
		if r.Score < 1 || r.Score > 5 {
			t.Fatalf("score out of range: %v", r.Score)
		}
		if r.User < 0 || r.User >= 50 || r.Item < 0 || r.Item >= 200 {
			t.Fatalf("bad ids: %+v", r)
		}
	}
}

func TestRatingsNoDuplicatePerUser(t *testing.T) {
	rs := Ratings(13, 20, 100, 15)
	seen := map[[2]int]bool{}
	for _, r := range rs {
		k := [2]int{r.User, r.Item}
		if seen[k] {
			t.Fatalf("duplicate rating %v", k)
		}
		seen[k] = true
	}
}

func TestWebGraphShape(t *testing.T) {
	g := WebGraph(17, 300, 4)
	if len(g) != 300 {
		t.Fatal("wrong node count")
	}
	indeg := make([]int, 300)
	for i, outs := range g {
		if i >= 4 && len(outs) != 4 {
			t.Fatalf("node %d out-degree %d, want 4", i, len(outs))
		}
		seen := map[int]bool{}
		for _, t2 := range outs {
			if t2 >= i {
				t.Fatalf("forward edge %d->%d", i, t2)
			}
			if seen[t2] {
				t.Fatalf("duplicate edge from %d", i)
			}
			seen[t2] = true
			indeg[t2]++
		}
	}
	// Preferential attachment: max in-degree far above average.
	maxIn, sum := 0, 0
	for _, d := range indeg {
		sum += d
		if d > maxIn {
			maxIn = d
		}
	}
	avg := float64(sum) / 300
	if float64(maxIn) < 4*avg {
		t.Fatalf("degree distribution not heavy-tailed: max=%d avg=%v", maxIn, avg)
	}
}

func TestWebGraphDeterministic(t *testing.T) {
	a := WebGraph(21, 100, 3)
	b := WebGraph(21, 100, 3)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic graph")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic edge order")
			}
		}
	}
}

func TestObservationSeqProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		obs, hidden := ObservationSeq(seed, 4, 40, 200)
		if len(obs) != 200 || len(hidden) != 200 {
			return false
		}
		for t2 := range obs {
			if obs[t2] < 0 || obs[t2] >= 40 || hidden[t2] < 0 || hidden[t2] >= 4 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestObservationSeqSticky(t *testing.T) {
	_, hidden := ObservationSeq(31, 4, 40, 5000)
	stays := 0
	for i := 1; i < len(hidden); i++ {
		if hidden[i] == hidden[i-1] {
			stays++
		}
	}
	frac := float64(stays) / float64(len(hidden)-1)
	if frac < 0.6 {
		t.Fatalf("chain not sticky: stay fraction %v", frac)
	}
}
