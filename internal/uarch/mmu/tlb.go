// Package mmu models the paper's two-level TLB hierarchy (Table III):
// 4-way 64-entry ITLB and DTLB backed by a 4-way 512-entry unified L2 TLB,
// with page walks on L2 misses. Completed page walks per kilo-instruction
// are the metrics of the paper's Figures 8 and 11.
//
// As in package cache, a set's ways are kept in most-recently-used-first
// order instead of carrying use stamps: a hit moves the page to way 0, a miss
// shifts the set down one and drops the last way, and invalid entries (tag
// 0) can therefore only be at a set's tail — so the last way is always the
// right victim, and re-touching the MRU page is one compare.
package mmu

// pageShift is log2 of the 4 KB page size.
const pageShift = 12

// TLB is one set-associative translation buffer with LRU replacement.
type TLB struct {
	sets int // a power of two
	ways int
	tags []uint64 // sets*ways page tags, each set MRU-first; 0 = invalid

	// Counters.
	Accesses int64
	Misses   int64
}

// NewTLB builds a TLB with the given entry count and associativity.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("mmu: bad TLB geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("mmu: TLB set count must be a power of two")
	}
	return &TLB{
		sets: sets,
		ways: ways,
		tags: make([]uint64, entries),
	}
}

// vpn converts an address to a nonzero virtual page number.
func vpn(addr uint64) uint64 { return (addr >> pageShift) + 1 }

// access looks up the page of addr, inserting it on miss. Returns hit.
func (t *TLB) access(addr uint64) bool {
	t.Accesses++
	p := vpn(addr)
	base := int(p&uint64(t.sets-1)) * t.ways
	set := t.tags[base : base+t.ways : base+t.ways]
	if set[0] == p {
		return true
	}
	for k := 1; k < len(set); k++ {
		if set[k] == p {
			copy(set[1:k+1], set[:k])
			set[0] = p
			return true
		}
	}
	t.Misses++
	copy(set[1:], set)
	set[0] = p
	return false
}

// Reset clears contents and counters.
func (t *TLB) Reset() {
	clear(t.tags)
	t.Accesses = 0
	t.Misses = 0
}

// Hierarchy is an L1 TLB backed by a shared L2 TLB with a page walker.
type Hierarchy struct {
	L1 *TLB
	L2 *TLB // shared; may be aliased by the I- and D-side hierarchies

	// WalkLatency is the page walk cost in cycles.
	WalkLatency int
	// L2Latency is the extra cost of an L1-miss/L2-hit in cycles.
	L2Latency int

	// Walks counts completed page walks (L2 TLB misses).
	Walks int64
}

// Reset clears the private L1 TLB and the walk counter. The shared L2 is
// left alone: it may be aliased by the sibling hierarchy, so the owner of
// both hierarchies resets it exactly once.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.Walks = 0
}

// Translate looks up addr, returning the added latency in cycles (0 on an
// L1 hit) and whether a full page walk occurred.
func (h *Hierarchy) Translate(addr uint64) (latency int, walked bool) {
	if h.L1.access(addr) {
		return 0, false
	}
	if h.L2.access(addr) {
		return h.L2Latency, false
	}
	h.Walks++
	return h.L2Latency + h.WalkLatency, true
}
