package analysis

// SVM is a linear support vector machine trained with the Pegasos
// stochastic sub-gradient method (hinge loss, L2 regularisation). Labels
// are +1 / -1.
type SVM struct {
	W      []float64
	Bias   float64
	Lambda float64
}

// margin returns w·x + b.
func (s *SVM) margin(x []float64) float64 {
	m := s.Bias
	for i, xi := range x {
		m += s.W[i] * xi
	}
	return m
}

// Predict returns +1 or -1.
func (s *SVM) Predict(x []float64) int {
	if s.margin(x) >= 0 {
		return 1
	}
	return -1
}

// SubGradient computes the Pegasos batch sub-gradient for a data shard,
// enabling map-side gradient computation with reduce-side averaging.
// It returns dW (same length as w) and the hinge-loss violation count.
func SubGradient(w []float64, bias, lambda float64, x [][]float64, y []int) ([]float64, int) {
	dw := make([]float64, len(w))
	violations := 0
	for j := range w {
		dw[j] = lambda * w[j]
	}
	for i := range x {
		m := bias
		for j, xj := range x[i] {
			m += w[j] * xj
		}
		if float64(y[i])*m < 1 {
			violations++
			for j, xj := range x[i] {
				dw[j] -= float64(y[i]) * xj / float64(len(x))
			}
		}
	}
	return dw, violations
}
