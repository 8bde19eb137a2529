package sim

import (
	"math"
	"testing"
)

// refZipf is the sampler Zipf replaced, verbatim: a float64 CDF searched
// with Float64 draws. Zipf must pick the same rank for every draw.
type refZipf struct {
	cdf []float64
	rng *RNG
}

func newRefZipf(rng *RNG, n int, s float64) *refZipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &refZipf{cdf: cdf, rng: rng}
}

func (z *refZipf) Next() int { return z.rank(z.rng.Float64()) }

func (z *refZipf) rank(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfMatchesFloatSearch: the integer table and the branch-free search
// pick the float search's rank — on seeded draws (the RNGs must also end in
// the same state) and on the draws either side of every table entry.
func TestZipfMatchesFloatSearch(t *testing.T) {
	draws := 20000
	if testing.Short() {
		draws = 2000
	}
	for _, n := range []int{1, 2, 3, 5, 8, 63, 64, 65, 777, 4096, 12288, 1<<16 + 1} {
		for _, s := range []float64{0.7, 1.05, 1.4, 3} {
			a, b := NewRNG(uint64(n)), NewRNG(uint64(n))
			z, ref := NewZipf(a, n, s), newRefZipf(b, n, s)
			for i := 0; i < draws; i++ {
				if got, want := z.Next(), ref.Next(); got != want {
					t.Fatalf("n=%d s=%v draw %d: rank %d, float search says %d", n, s, i, got, want)
				}
			}
			if a.State() != b.State() {
				t.Fatalf("n=%d s=%v: generators diverged", n, s)
			}
			for i, c := range z.cdf {
				for _, k := range []uint64{c - 1, c, c + 1, 0, 1<<53 - 1} {
					if k >= 1<<53 {
						continue // not a draw: Uint64()>>11 is below 2⁵³
					}
					if got, want := z.rank(k), ref.rank(float64(k)/(1<<53)); got != want {
						t.Fatalf("n=%d s=%v entry %d draw %d: rank %d, float search says %d", n, s, i, k, got, want)
					}
				}
			}
		}
	}
}

// TestStepIsUint64: Step from State is the transition Uint64 makes.
func TestStepIsUint64(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		next, bits := Step(r.State())
		if got := r.Uint64(); got != bits || r.State() != next {
			t.Fatalf("draw %d: Step = (%#x, %#x), Uint64 = %#x leaving %#x", i, next, bits, got, r.State())
		}
	}
	r.SetState(12345)
	if _, bits := Step(12345); r.Uint64() != bits {
		t.Fatal("SetState did not move the generator")
	}
}
