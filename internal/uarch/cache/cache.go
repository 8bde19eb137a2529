// Package cache implements set-associative caches with LRU replacement for
// the core model's three-level hierarchy (Table III of the paper: 32 KB
// L1I/L1D, 256 KB private L2, 12 MB shared L3, all 64-byte lines).
//
// Recency is kept in the order of a set's ways, not in per-entry stamps:
// way 0 of a set is its most recently used line and the last way its least.
// A hit at way k moves that tag to way 0 and shifts ways 0..k-1 down one; a
// miss shifts the whole set down one, dropping the last way. Entries only
// ever enter at way 0 and leave from the end, so invalid entries (tag 0)
// can only sit at a set's tail: the last way is the invalid victim if there
// is one and the least recently used line otherwise, which is the textbook
// "prefer an invalid entry, else evict the LRU" policy with one array, no
// stamps, and a single compare for the common re-touch of the MRU line.
package cache

import "fmt"

// Cache is one set-associative cache level. Lookups are by byte address;
// the cache stores line tags only (no data), which is all timing simulation
// needs.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint
	// tags holds sets*ways line tags, each set's ways contiguous and in
	// most-recently-used-first order; 0 = invalid. Lines enter a set at way
	// 0 and leave from its last way, so a set's invalid entries are always
	// its tail.
	tags []uint64

	// Counters.
	Accesses int64
	Misses   int64
}

// New builds a cache of the given total size, associativity and line size.
// Size must be a multiple of ways*lineSize; the set count need not be a
// power of two (the paper's 12 MB 16-way L3 has 12288 sets).
func New(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	sets := size / (ways * lineSize)
	if sets == 0 || sets*ways*lineSize != size {
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			name, size, ways, lineSize))
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	if 1<<shift != lineSize {
		panic("cache: line size not a power of two")
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		tags:      make([]uint64, sets*ways),
	}
}

// line converts a byte address to a line address with a nonzero sentinel
// (tag 0 marks invalid entries, so line addresses are offset by 1).
func (c *Cache) line(addr uint64) uint64 { return (addr >> c.lineShift) + 1 }

// set returns the ways of the set ln maps to, MRU first. A power-of-two set
// count (L1I, L1D, L2) indexes with a mask; only the 12288-set L3, reached
// on L2 misses, pays for a division.
func (c *Cache) set(ln uint64) []uint64 {
	idx := ln & uint64(c.sets-1)
	if c.sets&(c.sets-1) != 0 {
		idx = ln % uint64(c.sets)
	}
	base := int(idx) * c.ways
	return c.tags[base : base+c.ways : base+c.ways]
}

// Access looks up addr, filling the line on miss (LRU victim). It returns
// true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	ln := c.line(addr)
	set := c.set(ln)
	if set[0] == ln {
		return true
	}
	for k := 1; k < len(set); k++ {
		if set[k] == ln {
			copy(set[1:k+1], set[:k])
			set[0] = ln
			return true
		}
	}
	c.Misses++
	copy(set[1:], set)
	set[0] = ln
	return false
}

// probe reports whether addr is resident without updating state or
// counters.
func (c *Cache) probe(addr uint64) bool {
	ln := c.line(addr)
	for _, tag := range c.set(ln) {
		if tag == ln {
			return true
		}
	}
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.Accesses = 0
	c.Misses = 0
}
