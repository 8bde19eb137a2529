package mmu

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dcbench/internal/sim"
)

// refTLB is the stamp-LRU TLB this package shipped before its sets were
// kept in MRU-first order, kept verbatim as the oracle (see cache.refCache).
type refTLB struct {
	sets  int
	ways  int
	tags  []uint64
	lru   []uint32
	stamp uint32

	Accesses int64
	Misses   int64
}

func newRefTLB(entries, ways int) *refTLB {
	return &refTLB{
		sets: entries / ways,
		ways: ways,
		tags: make([]uint64, entries),
		lru:  make([]uint32, entries),
	}
}

func (t *refTLB) Access(addr uint64) bool {
	t.Accesses++
	p := vpn(addr)
	set := int(p % uint64(t.sets))
	base := set * t.ways
	t.stamp++
	victim, oldest := base, t.lru[base]
	for i := base; i < base+t.ways; i++ {
		if t.tags[i] == p {
			t.lru[i] = t.stamp
			return true
		}
		if t.tags[i] == 0 {
			victim, oldest = i, 0
			continue
		}
		if t.lru[i] < oldest {
			victim, oldest = i, t.lru[i]
		}
	}
	t.Misses++
	t.tags[victim] = p
	t.lru[victim] = t.stamp
	return false
}

func (t *refTLB) Reset() {
	clear(t.tags)
	clear(t.lru)
	t.stamp = 0
	t.Accesses = 0
	t.Misses = 0
}

// sameResidents compares the two TLBs' contents set by set, ignoring the
// order of ways within a set (the oracle leaves entries where they were
// filled; the TLB keeps them MRU-first).
func sameResidents(got *TLB, ref *refTLB) error {
	for s := 0; s < ref.sets; s++ {
		g := slices.Clone(got.tags[s*ref.ways : (s+1)*ref.ways])
		r := slices.Clone(ref.tags[s*ref.ways : (s+1)*ref.ways])
		slices.Sort(g)
		slices.Sort(r)
		if !slices.Equal(g, r) {
			return fmt.Errorf("set %d holds %v, reference %v", s, g, r)
		}
	}
	return nil
}

// agreeWithRef drives a TLB and a refTLB with the same n seeded accesses —
// phases that hit (half the reach), thrash (eight times the reach), conflict
// (ways+3 pages of one set) and re-touch the previous page, interleaved with
// Resets — comparing the hit, the counters after every access, and the
// resident pages before every Reset and at the end.
func agreeWithRef(entries, ways int, seed uint64, n int) error {
	got, ref := NewTLB(entries, ways), newRefTLB(entries, ways)
	rng := sim.NewRNG(seed)
	reach := uint64(entries) << pageShift
	setStride := uint64(entries/ways) << pageShift
	var phase, left int
	var conflictBase, last uint64
	for i := 0; i < n; i++ {
		if left == 0 {
			phase, left = int(rng.Uint64()%4), 1+int(rng.Uint64()%512)
			conflictBase = rng.Uint64() % (8 * reach)
			if rng.Uint64()%16 == 0 {
				if err := sameResidents(got, ref); err != nil {
					return fmt.Errorf("before Reset at access %d: %v", i, err)
				}
				got.Reset()
				ref.Reset()
			}
		}
		left--
		var addr uint64
		switch phase {
		case 0:
			addr = rng.Uint64() % (reach/2 + 1)
		case 1:
			addr = rng.Uint64() % (8 * reach)
		case 2:
			addr = conflictBase + rng.Uint64()%uint64(ways+3)*setStride
		default:
			addr = last
			if rng.Uint64()%4 == 0 {
				addr = rng.Uint64() % (2 * reach)
			}
		}
		last = addr
		if g, r := got.access(addr), ref.Access(addr); g != r {
			return fmt.Errorf("access %d (%#x, phase %d): hit = %v, reference %v", i, addr, phase, g, r)
		}
		if got.Accesses != ref.Accesses || got.Misses != ref.Misses {
			return fmt.Errorf("access %d: counters %d/%d, reference %d/%d",
				i, got.Accesses, got.Misses, ref.Accesses, ref.Misses)
		}
	}
	return sameResidents(got, ref)
}

// refGeometries: the DTLB/ITLB (4-way × 16 sets), the L2 TLB, and the
// degenerate one-set and one-way shapes.
var refGeometries = []struct {
	name          string
	entries, ways int
}{
	{"16set-4way", 64, 4},
	{"128set-4way", 512, 4},
	{"1set-4way", 4, 4},
	{"8set-1way", 8, 1},
}

// TestAgreesWithStampLRU: the MRU-ordered sets are the same TLB as the
// stamp-LRU they replaced.
func TestAgreesWithStampLRU(t *testing.T) {
	for _, g := range refGeometries {
		t.Run(g.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				if err := agreeWithRef(g.entries, g.ways, seed, 200_000); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestAgreesWithStampLRUProperty is the same property under testing/quick's
// seeds.
func TestAgreesWithStampLRUProperty(t *testing.T) {
	for _, g := range refGeometries {
		f := func(seed uint64) bool {
			err := agreeWithRef(g.entries, g.ways, seed, 8_000)
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
