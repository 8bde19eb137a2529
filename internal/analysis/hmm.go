package analysis

import "math"

// HMM is a discrete hidden Markov model used for the paper's word
// segmentation workload (Section II-C.4). Probabilities are stored as logs.
type HMM struct {
	States  int
	Symbols int
	LogPi   []float64   // initial state log-probabilities
	LogA    [][]float64 // transition log-probabilities
	LogB    [][]float64 // emission log-probabilities
}

// NewHMM allocates a model with uniform distributions.
func NewHMM(states, symbols int) *HMM {
	h := &HMM{States: states, Symbols: symbols}
	h.LogPi = make([]float64, states)
	h.LogA = make([][]float64, states)
	h.LogB = make([][]float64, states)
	lpi := -math.Log(float64(states))
	lb := -math.Log(float64(symbols))
	for s := 0; s < states; s++ {
		h.LogPi[s] = lpi
		h.LogA[s] = make([]float64, states)
		h.LogB[s] = make([]float64, symbols)
		for t := 0; t < states; t++ {
			h.LogA[s][t] = lpi
		}
		for o := 0; o < symbols; o++ {
			h.LogB[s][o] = lb
		}
	}
	return h
}

// SetFromCounts loads the model from raw counts with add-one smoothing.
func (h *HMM) SetFromCounts(pi []float64, a, b [][]float64) {
	var piSum float64
	for _, v := range pi {
		piSum += v
	}
	for s := 0; s < h.States; s++ {
		h.LogPi[s] = math.Log((pi[s] + 1) / (piSum + float64(h.States)))
		var aSum, bSum float64
		for _, v := range a[s] {
			aSum += v
		}
		for _, v := range b[s] {
			bSum += v
		}
		for t := 0; t < h.States; t++ {
			h.LogA[s][t] = math.Log((a[s][t] + 1) / (aSum + float64(h.States)))
		}
		for o := 0; o < h.Symbols; o++ {
			h.LogB[s][o] = math.Log((b[s][o] + 1) / (bSum + float64(h.Symbols)))
		}
	}
}

// Viterbi returns the most probable hidden state path for obs and its
// log-probability.
func (h *HMM) Viterbi(obs []int) ([]int, float64) {
	n := len(obs)
	if n == 0 {
		return nil, 0
	}
	delta := make([][]float64, n)
	back := make([][]int, n)
	for t := range delta {
		delta[t] = make([]float64, h.States)
		back[t] = make([]int, h.States)
	}
	for s := 0; s < h.States; s++ {
		delta[0][s] = h.LogPi[s] + h.LogB[s][obs[0]]
	}
	for t := 1; t < n; t++ {
		for s := 0; s < h.States; s++ {
			bestPrev, bestLP := 0, math.Inf(-1)
			for q := 0; q < h.States; q++ {
				if lp := delta[t-1][q] + h.LogA[q][s]; lp > bestLP {
					bestPrev, bestLP = q, lp
				}
			}
			delta[t][s] = bestLP + h.LogB[s][obs[t]]
			back[t][s] = bestPrev
		}
	}
	best, bestLP := 0, math.Inf(-1)
	for s := 0; s < h.States; s++ {
		if delta[n-1][s] > bestLP {
			best, bestLP = s, delta[n-1][s]
		}
	}
	path := make([]int, n)
	path[n-1] = best
	for t := n - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path, bestLP
}
