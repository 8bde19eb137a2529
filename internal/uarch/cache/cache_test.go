package cache

import (
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := New("l1", 1024, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x103F) { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("next-line access hit")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("counters = %d/%d, want 4/2", c.Accesses, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets -> size 256.
	c := New("l1", 256, 2, 64)
	// Three lines mapping to set 0: line addresses differing by sets*line.
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is MRU
	c.Access(d) // evicts b (LRU)
	if !c.probe(a) {
		t.Fatal("a evicted, want b")
	}
	if c.probe(b) {
		t.Fatal("b survived, want evicted")
	}
	if !c.probe(d) {
		t.Fatal("d not filled")
	}
}

func TestFootprintFitsNoCapacityMisses(t *testing.T) {
	c := New("l1", 32<<10, 4, 64)
	// Touch a 16 KB footprint twice: second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 16<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if c.Misses != 256 { // 16KB/64B cold misses only
		t.Fatalf("misses = %d, want 256 cold only", c.Misses)
	}
}

func TestFootprintExceedsThrashes(t *testing.T) {
	c := New("l1", 32<<10, 4, 64)
	// Cyclic sweep over 64 KB: with LRU every access misses after warmup.
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 64<<10; addr += 64 {
			c.Access(addr)
		}
	}
	if r := float64(c.Misses) / float64(c.Accesses); r < 0.9 {
		t.Fatalf("thrash miss ratio = %v, want >= 0.9", r)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := New("l1", 1024, 2, 64)
	c.probe(0x40)
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("probe touched counters")
	}
	if c.Access(0x40) {
		t.Fatal("probe filled the line")
	}
}

func TestHitAfterFillProperty(t *testing.T) {
	// Property: immediately re-accessing any address hits.
	if err := quick.Check(func(addrs []uint64) bool {
		c := New("p", 4096, 4, 64)
		for _, a := range addrs {
			c.Access(a)
			if !c.Access(a) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResidencyBound(t *testing.T) {
	// Property: distinct resident lines never exceed capacity.
	if err := quick.Check(func(addrs []uint64) bool {
		c := New("p", 2048, 2, 64)
		resident := 0
		for _, a := range addrs {
			c.Access(a)
		}
		for _, a := range addrs {
			if c.probe(a) {
				resident++
			}
		}
		_ = resident
		// Count distinct resident lines via a map.
		seen := map[uint64]bool{}
		n := 0
		for _, a := range addrs {
			ln := a >> 6
			if !seen[ln] && c.probe(a) {
				seen[ln] = true
				n++
			}
		}
		return n <= 2048/64
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 0, 1, 64) },
		func() { New("x", 100, 2, 64) }, // not divisible into sets
		func() { New("x", 1024, 2, 60) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReset(t *testing.T) {
	c := New("l1", 1024, 2, 64)
	c.Access(0x40)
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatal("counters survived reset")
	}
	if c.probe(0x40) {
		t.Fatal("contents survived reset")
	}
}
