package mmu

import (
	"testing"
	"testing/quick"
)

func TestTLBHitAfterMiss(t *testing.T) {
	tlb := NewTLB(64, 4)
	if tlb.access(0x1000) {
		t.Fatal("cold hit")
	}
	if !tlb.access(0x1FFF) { // same 4K page
		t.Fatal("same-page miss")
	}
	if tlb.access(0x2000) { // next page
		t.Fatal("next-page hit")
	}
}

func TestTLBCoverage(t *testing.T) {
	// 64 entries cover 256 KB; a 128 KB loop fits, a 1 MB loop thrashes.
	tlb := NewTLB(64, 4)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 128<<10; a += 4096 {
			tlb.access(a)
		}
	}
	if tlb.Misses != 32 {
		t.Fatalf("misses = %d, want 32 cold only", tlb.Misses)
	}
	tlb = NewTLB(64, 4)
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 1<<20; a += 4096 {
			tlb.access(a)
		}
	}
	if ratio := float64(tlb.Misses) / float64(tlb.Accesses); ratio < 0.9 {
		t.Fatalf("thrash miss ratio = %v, want >= 0.9", ratio)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := &Hierarchy{
		L1:          NewTLB(64, 4),
		L2:          NewTLB(512, 4),
		WalkLatency: 120,
		L2Latency:   7,
	}
	// Cold: full walk.
	lat, walked := h.Translate(0x5000)
	if lat != 127 || !walked {
		t.Fatalf("cold translate = %d/%v, want 127/true", lat, walked)
	}
	// Warm L1.
	lat, walked = h.Translate(0x5abc)
	if lat != 0 || walked {
		t.Fatalf("warm translate = %d/%v, want 0/false", lat, walked)
	}
	if h.Walks != 1 {
		t.Fatalf("walks = %d, want 1", h.Walks)
	}
}

func TestHierarchyL2Catch(t *testing.T) {
	h := &Hierarchy{L1: NewTLB(4, 4), L2: NewTLB(512, 4), WalkLatency: 120, L2Latency: 7}
	// Touch 8 pages: L1 (4 entries) evicts, L2 holds all.
	for a := uint64(0); a < 8*4096; a += 4096 {
		h.Translate(a)
	}
	walksBefore := h.Walks
	// Revisit: L1 misses for evicted pages must hit L2 (no new walks).
	for a := uint64(0); a < 8*4096; a += 4096 {
		if _, walked := h.Translate(a); walked {
			t.Fatal("walk on an L2-resident page")
		}
	}
	if h.Walks != walksBefore {
		t.Fatal("walk count changed")
	}
}

func TestTLBPropertyRevisitHits(t *testing.T) {
	if err := quick.Check(func(addrs []uint64) bool {
		tlb := NewTLB(64, 4)
		for _, a := range addrs {
			tlb.access(a)
			if !tlb.access(a) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTLB(60, 4) // 15 sets, not a power of two
}
