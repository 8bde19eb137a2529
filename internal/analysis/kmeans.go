package analysis

import "math"

// squaredDistance returns the squared Euclidean distance between a and b.
func squaredDistance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// NearestCentroid returns the index of the closest centroid and the squared
// distance to it.
func NearestCentroid(p []float64, centroids [][]float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, cen := range centroids {
		if d := squaredDistance(p, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// KMeansStep performs one Lloyd iteration: assign every point to its nearest
// centroid and return the new centroids, the assignment, and the total
// within-cluster squared distance (the objective).
func KMeansStep(points, centroids [][]float64) (next [][]float64, assign []int, cost float64) {
	k := len(centroids)
	dim := len(centroids[0])
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	counts := make([]int, k)
	assign = make([]int, len(points))
	for i, p := range points {
		c, d := NearestCentroid(p, centroids)
		assign[i] = c
		cost += d
		counts[c]++
		for j, v := range p {
			sums[c][j] += v
		}
	}
	next = make([][]float64, k)
	for c := range next {
		next[c] = make([]float64, dim)
		if counts[c] == 0 {
			copy(next[c], centroids[c]) // keep empty clusters in place
			continue
		}
		for j := range next[c] {
			next[c][j] = sums[c][j] / float64(counts[c])
		}
	}
	return next, assign, cost
}

// FuzzyKMeansStep performs one fuzzy C-means iteration with fuzziness m:
// soft memberships u_ic ∝ (1/d_ic)^(1/(m-1)), centroids as membership-
// weighted means. Returns new centroids, the membership matrix and the
// fuzzy objective.
func FuzzyKMeansStep(points, centroids [][]float64, m float64) ([][]float64, [][]float64, float64) {
	k := len(centroids)
	dim := len(centroids[0])
	memb := make([][]float64, len(points))
	exp := 1 / (m - 1)
	cost := 0.0
	for i, p := range points {
		u := make([]float64, k)
		// Handle coincident points: full membership to the first zero-
		// distance centroid.
		hit := -1
		for c := range centroids {
			if d := squaredDistance(p, centroids[c]); d == 0 {
				hit = c
				break
			}
		}
		if hit >= 0 {
			u[hit] = 1
		} else {
			sum := 0.0
			for c := range centroids {
				w := math.Pow(1/squaredDistance(p, centroids[c]), exp)
				u[c] = w
				sum += w
			}
			for c := range u {
				u[c] /= sum
			}
		}
		memb[i] = u
		for c := range centroids {
			cost += math.Pow(u[c], m) * squaredDistance(p, centroids[c])
		}
	}
	next := make([][]float64, k)
	for c := range next {
		next[c] = make([]float64, dim)
		den := 0.0
		for i, p := range points {
			w := math.Pow(memb[i][c], m)
			den += w
			for j, v := range p {
				next[c][j] += w * v
			}
		}
		if den == 0 {
			copy(next[c], centroids[c])
			continue
		}
		for j := range next[c] {
			next[c][j] /= den
		}
	}
	return next, memb, cost
}
