package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"dcbench/internal/datagen"
)

func TestKMeansRecoversClusters(t *testing.T) {
	pts, labels := datagen.Vectors(5, 400, 6, 3)
	centroids, assign, iters := kMeans(pts, 3, 50, 1e-6)
	if iters < 1 {
		t.Fatal("no iterations")
	}
	if len(centroids) != 3 {
		t.Fatal("wrong k")
	}
	// Cluster purity: each found cluster should be dominated by one true label.
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		total := 0
		for i := range pts {
			if assign[i] == c {
				counts[labels[i]]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		if purity := float64(max) / float64(total); purity < 0.9 {
			t.Fatalf("cluster %d purity = %v, want >= 0.9", c, purity)
		}
	}
}

func TestKMeansObjectiveMonotone(t *testing.T) {
	pts, _ := datagen.Vectors(9, 300, 4, 4)
	centroids := [][]float64{pts[0], pts[1], pts[2], pts[3]}
	prev := math.Inf(1)
	for i := 0; i < 10; i++ {
		var cost float64
		centroids, _, cost = KMeansStep(pts, centroids)
		if cost > prev+1e-9 {
			t.Fatalf("objective rose: %v -> %v at iter %d", prev, cost, i)
		}
		prev = cost
	}
}

func TestKMeansAssignmentIsNearest(t *testing.T) {
	// Property: after a step, every point's recorded assignment is its
	// true nearest centroid among the *input* centroids.
	if err := quick.Check(func(seed uint64) bool {
		pts, _ := datagen.Vectors(seed, 60, 3, 3)
		cents := [][]float64{pts[0], pts[1], pts[2]}
		_, assign, _ := KMeansStep(pts, cents)
		for i, p := range pts {
			want, _ := NearestCentroid(p, cents)
			if assign[i] != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansEmptyClusterPreserved(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.1, 0}, {0.2, 0}}
	cents := [][]float64{{0, 0}, {100, 100}}
	next, _, _ := KMeansStep(pts, cents)
	if next[1][0] != 100 || next[1][1] != 100 {
		t.Fatalf("empty cluster moved: %v", next[1])
	}
}

func TestKMeansPanicsOnTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	kMeans([][]float64{{1}}, 2, 5, 0)
}

func TestFuzzyMembershipsSumToOne(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		pts, _ := datagen.Vectors(seed, 50, 3, 3)
		cents := [][]float64{pts[0], pts[1], pts[2]}
		_, memb, _ := FuzzyKMeansStep(pts, cents, 2.0)
		for _, u := range memb {
			sum := 0.0
			for _, v := range u {
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzyKMeansConvergesToHardClustersOnSeparatedData(t *testing.T) {
	pts, _ := datagen.Vectors(3, 300, 4, 2)
	_, memb, _ := fuzzyKMeans(pts, 2, 2.0, 40, 1e-9)
	// On well-separated data most memberships should be decisive.
	decisive := 0
	for _, u := range memb {
		for _, v := range u {
			if v > 0.9 {
				decisive++
			}
		}
	}
	if frac := float64(decisive) / float64(len(memb)); frac < 0.8 {
		t.Fatalf("decisive fraction = %v, want >= 0.8", frac)
	}
}

func TestFuzzyCoincidentPoint(t *testing.T) {
	pts := [][]float64{{1, 1}, {5, 5}}
	cents := [][]float64{{1, 1}, {5, 5}}
	_, memb, _ := FuzzyKMeansStep(pts, cents, 2.0)
	if memb[0][0] != 1 || memb[1][1] != 1 {
		t.Fatalf("coincident points not fully assigned: %v", memb)
	}
}

func TestNearestCentroid(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	idx, d := NearestCentroid([]float64{9, 1}, cents)
	if idx != 1 {
		t.Fatalf("nearest = %d, want 1", idx)
	}
	if math.Abs(d-2) > 1e-12 {
		t.Fatalf("distance = %v, want 2", d)
	}
}

// kMeans runs Lloyd's algorithm from the first k points until the objective
// improves by less than tol or maxIters is reached. It returns centroids,
// the final assignment and the iteration count.
func kMeans(points [][]float64, k, maxIters int, tol float64) ([][]float64, []int, int) {
	if k <= 0 || len(points) < k {
		panic("analysis: KMeans needs at least k points")
	}
	centroids := make([][]float64, k)
	for i := range centroids {
		centroids[i] = append([]float64(nil), points[i]...)
	}
	prev := math.Inf(1)
	var assign []int
	for it := 1; it <= maxIters; it++ {
		var cost float64
		centroids, assign, cost = KMeansStep(points, centroids)
		if prev-cost < tol {
			return centroids, assign, it
		}
		prev = cost
	}
	return centroids, assign, maxIters
}

// fuzzyKMeans iterates fuzzy C-means until the objective stabilises.
func fuzzyKMeans(points [][]float64, k int, m float64, maxIters int, tol float64) ([][]float64, [][]float64, int) {
	centroids := make([][]float64, k)
	for i := range centroids {
		centroids[i] = append([]float64(nil), points[i]...)
	}
	prev := math.Inf(1)
	var memb [][]float64
	for it := 1; it <= maxIters; it++ {
		var cost float64
		centroids, memb, cost = FuzzyKMeansStep(points, centroids, m)
		if math.Abs(prev-cost) < tol {
			return centroids, memb, it
		}
		prev = cost
	}
	return centroids, memb, maxIters
}
