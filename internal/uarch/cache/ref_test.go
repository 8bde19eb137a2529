package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"dcbench/internal/sim"
)

// refCache is the stamp-LRU cache this package shipped before its sets were
// kept in MRU-first order, kept verbatim as the oracle: every entry carries
// a last-use stamp, a miss prefers an invalid victim and otherwise evicts
// the smallest stamp. The MRU-ordered Cache must agree with it on every
// hit/miss, every counter and every resident line.
type refCache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // sets*ways entries; 0 = invalid
	lru       []uint32 // per-entry last-use stamps
	stamp     uint32

	Accesses int64
	Misses   int64
}

func newRefCache(size, ways, lineSize int) *refCache {
	sets := size / (ways * lineSize)
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &refCache{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		tags:      make([]uint64, sets*ways),
		lru:       make([]uint32, sets*ways),
	}
}

func (c *refCache) line(addr uint64) uint64 { return (addr >> c.lineShift) + 1 }

func (c *refCache) Access(addr uint64) bool {
	c.Accesses++
	ln := c.line(addr)
	set := int(ln % uint64(c.sets))
	base := set * c.ways
	c.stamp++
	victim := base
	oldest := c.lru[base]
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == ln {
			c.lru[i] = c.stamp
			return true
		}
		if c.tags[i] == 0 {
			// Prefer invalid entries as victims immediately.
			victim = i
			oldest = 0
			continue
		}
		if c.lru[i] < oldest {
			victim, oldest = i, c.lru[i]
		}
	}
	c.Misses++
	c.tags[victim] = ln
	c.lru[victim] = c.stamp
	return false
}

func (c *refCache) Probe(addr uint64) bool {
	ln := c.line(addr)
	set := int(ln % uint64(c.sets))
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == ln {
			return true
		}
	}
	return false
}

func (c *refCache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.stamp = 0
	c.Accesses = 0
	c.Misses = 0
}

// refGeometries are the shapes the oracle properties run over: the
// degenerate ones (one set, one way), a tiny one where every eviction order
// is reachable, L1D's, and the paper's L3 with its non-power-of-two set
// count.
var refGeometries = []struct {
	name       string
	size, ways int
}{
	{"1set-4way", 4 * 64, 4},
	{"64set-1way", 64 * 64, 1},
	{"2set-2way", 256, 2},
	{"64set-8way", 32 << 10, 8},
	{"12288set-16way", 12 << 20, 16},
}

// agreeWithRef drives a Cache and a refCache of one geometry with the same
// n seeded accesses and returns the first disagreement. The stream moves
// between phases that hit (a footprint of half the capacity), thrash (four
// times the capacity), conflict (ways+3 lines of one set, so the whole LRU
// order of that set is exercised) and re-touch the previous address, and it
// is interleaved with invalidating Resets. Counters are compared after
// every access; probe of every line touched since the last Reset is
// compared before each Reset and at the end.
func agreeWithRef(size, ways int, seed uint64, n int) error {
	got, ref := New("dut", size, ways, 64), newRefCache(size, ways, 64)
	rng := sim.NewRNG(seed)
	capacity := uint64(size)
	setStride := uint64(got.sets) * 64
	touched := map[uint64]struct{}{}
	probeAll := func(when string) error {
		for a := range touched {
			if g, r := got.probe(a), ref.Probe(a); g != r {
				return fmt.Errorf("%s: Probe(%#x) = %v, reference %v", when, a, g, r)
			}
		}
		return nil
	}
	var phase, left int
	var conflictBase, last uint64
	for i := 0; i < n; i++ {
		if left == 0 {
			phase, left = int(rng.Uint64()%4), 1+int(rng.Uint64()%2048)
			conflictBase = rng.Uint64() % (4 * capacity) &^ 63
			if rng.Uint64()%16 == 0 {
				if err := probeAll(fmt.Sprintf("before Reset at access %d", i)); err != nil {
					return err
				}
				got.Reset()
				ref.Reset()
				clear(touched)
			}
		}
		left--
		var addr uint64
		switch phase {
		case 0:
			addr = rng.Uint64() % (capacity/2 + 64)
		case 1:
			addr = rng.Uint64() % (4 * capacity)
		case 2:
			addr = conflictBase + rng.Uint64()%uint64(ways+3)*setStride
		default:
			addr = last
			if rng.Uint64()%4 == 0 {
				addr = rng.Uint64() % (2 * capacity)
			}
		}
		last = addr
		touched[addr&^63] = struct{}{}
		if g, r := got.Access(addr), ref.Access(addr); g != r {
			return fmt.Errorf("access %d (%#x, phase %d): hit = %v, reference %v", i, addr, phase, g, r)
		}
		if got.Accesses != ref.Accesses || got.Misses != ref.Misses {
			return fmt.Errorf("access %d: counters %d/%d, reference %d/%d",
				i, got.Accesses, got.Misses, ref.Accesses, ref.Misses)
		}
	}
	return probeAll("at end")
}

// TestAgreesWithStampLRU: the MRU-ordered sets are the same cache as the
// stamp-LRU they replaced, on seeded streams over every geometry.
func TestAgreesWithStampLRU(t *testing.T) {
	for _, g := range refGeometries {
		t.Run(g.name, func(t *testing.T) {
			n := 200_000
			if testing.Short() {
				n = 40_000
			}
			for seed := uint64(1); seed <= 3; seed++ {
				if err := agreeWithRef(g.size, g.ways, seed, n); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestAgreesWithStampLRUProperty is the same property under testing/quick's
// seeds, on the geometries small enough to run many of.
func TestAgreesWithStampLRUProperty(t *testing.T) {
	for _, g := range refGeometries[:4] {
		f := func(seed uint64) bool {
			err := agreeWithRef(g.size, g.ways, seed, 8_000)
			if err != nil {
				t.Logf("%s seed %d: %v", g.name, seed, err)
			}
			return err == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	}
}
