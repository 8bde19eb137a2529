package sim

import (
	"math"
	"sync"
	"sync/atomic"
)

// RNG is a small, fast, deterministic xorshift64* generator. It is used
// throughout the simulator instead of math/rand so that results are stable
// across Go releases and independent of global seeding.
type RNG struct {
	state    uint64
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed (zero is remapped, as the
// xorshift state must be nonzero).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Step is one xorshift64* transition as a pure function: the state that
// follows state, and the 64 bits Uint64 returns on reaching it. A kernel
// that draws several numbers per item steps a copy of State in registers
// and stores back, with SetState, the state the same draws made one by
// one would have left (memtrace.Tracer does).
func Step(state uint64) (next, bits uint64) {
	state ^= state >> 12
	state ^= state << 25
	state ^= state >> 27
	return state, state * 0x2545F4914F6CDD1D
}

// State returns the generator's position in its sequence.
func (r *RNG) State() uint64 { return r.state }

// SetState moves the generator to a position State or Step returned.
func (r *RNG) SetState(state uint64) { r.state = state }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	next, bits := Step(r.state)
	r.state = next
	return bits
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate via the polar Box-Muller
// transform (one value per call; the spare is cached).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			m := math.Sqrt(-2 * math.Log(s) / s)
			r.spare, r.hasSpare = v*m, true
			return u * m
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf returns a Zipf-distributed rank in [0, n) with exponent s, using
// inverse-CDF sampling over a precomputed table. Build the table once with
// NewZipf for repeated draws.
//
// The table holds floor(F(i)·2⁵³): a draw is Float64's integer k = u·2⁵³
// before the division, both scalings are exact in float64, and for an
// integer k, F(i) < u ⇔ F(i)·2⁵³ < k ⇔ floor(F(i)·2⁵³) < k — so searching
// the integers picks the rank a search of the float CDF by Float64() picks.
type Zipf struct {
	cdf []uint64
	rng *RNG
}

// zipfTables shares CDFs between samplers: a table is a pure function of
// its shape, read-only once stored, and the tracer and the data generators
// ask for the same dozen shapes on every job and map split. Client-chosen
// profiles reach n, so only the first 64 shapes of ≤ 1<<16 ranks are kept.
var (
	zipfTables sync.Map // zipfShape → []uint64
	zipfShapes atomic.Int32
)

type zipfShape struct {
	n int
	s float64
}

// NewZipf constructs a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf over non-positive n")
	}
	if v, ok := zipfTables.Load(zipfShape{n, s}); ok {
		return &Zipf{cdf: v.([]uint64), rng: rng}
	}
	// One table, two passes: the running masses wait as float bits in the
	// slots their scaled shares then take.
	cdf := make([]uint64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = math.Float64bits(sum)
	}
	for i, mass := range cdf {
		cdf[i] = uint64(math.Float64frombits(mass) / sum * (1 << 53))
	}
	if n <= 1<<16 && zipfShapes.Load() < 64 && zipfShapes.Add(1) <= 64 {
		zipfTables.Store(zipfShape{n, s}, cdf)
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next draws a rank in [0, len(cdf)).
func (z *Zipf) Next() int { return z.rank(z.rng.Uint64() >> 11) }

// rank returns the first rank whose table entry is not below the draw k
// (the last entry is 2⁵³, above every draw). Which half holds it is a coin
// flip at every level, so the search advances by a mask of the compare's
// sign bit instead of a branch nothing can predict.
func (z *Zipf) rank(k uint64) int {
	cdf := z.cdf
	lo := 0
	for n := len(cdf); n > 1; {
		half := n >> 1
		lo += half & -int((cdf[lo+half-1]-k)>>63)
		n -= half
	}
	return lo + int((cdf[lo]-k)>>63)
}
