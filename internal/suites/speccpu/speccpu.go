// Package speccpu provides proxy kernels for the SPEC CPU2006 comparison
// columns (SPECINT and SPECFP in Figures 3-12). The proxies capture the
// class-defining properties the paper relies on: statically-compiled small
// code footprints (near-zero L1I misses and ITLB walks), large data
// footprints (noticeable DTLB walks), branchy integer control flow for
// SPECINT (the highest mispredict ratio of the compared suites) and
// regular, high-ILP floating-point loops for SPECFP.
//
// The traced proxies (TraceSPECINT, TraceSPECFP) emit a synthetic
// instruction stream with those properties; they compute nothing. The pure
// kernels beside them (rleCompress/rleDecompress, listSum, stencil2D)
// compute for real; they are unit-tested references that no traced proxy
// calls yet, kept for the proxies to run on seeded data.
package speccpu

import (
	"dcbench/internal/memtrace"
	"dcbench/internal/sim"
)

// --- Real kernels (unit-tested) ---

// rleCompress run-length encodes data as (count, byte) pairs.
func rleCompress(data []byte) []byte {
	var out []byte
	for i := 0; i < len(data); {
		j := i
		for j < len(data) && data[j] == data[i] && j-i < 255 {
			j++
		}
		out = append(out, byte(j-i), data[i])
		i = j
	}
	return out
}

// rleDecompress inverts rleCompress.
func rleDecompress(enc []byte) []byte {
	var out []byte
	for i := 0; i+1 < len(enc); i += 2 {
		for k := byte(0); k < enc[i]; k++ {
			out = append(out, enc[i+1])
		}
	}
	return out
}

// listSum walks a linked list encoded as a next-index array, summing
// values; it is the mcf-like pointer-chasing kernel.
func listSum(next []int, vals []int64, start, steps int) int64 {
	var sum int64
	i := start
	for s := 0; s < steps; s++ {
		sum += vals[i]
		i = next[i]
	}
	return sum
}

// stencil2D applies one Jacobi sweep over an n x n grid, returning the new
// grid (the lbm/milc-like SPECFP kernel).
func stencil2D(grid []float64, n int) []float64 {
	out := make([]float64, n*n)
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			out[i*n+j] = 0.25 * (grid[(i-1)*n+j] + grid[(i+1)*n+j] +
				grid[i*n+j-1] + grid[i*n+j+1])
		}
	}
	return out
}

// --- Trace generators ---

// TraceSPECINT emits a gcc/bzip2/mcf-like integer mix: compression scans,
// hash lookups into a multi-MB table and pointer chasing, with frequent
// data-dependent branches.
func TraceSPECINT(t *memtrace.Tracer) {
	rng := sim.NewRNG(41)
	data := t.Alloc(16 << 20)   // input being scanned
	table := t.Alloc(512 << 10) // hash/state table
	list := t.Alloc(3 << 19)    // pointer-chased structure (1.5 MB)
	pos := uint64(0)
	ptr := uint64(0)
	bc := 0
	for {
		// Compression-like scan: sequential bytes, branchy run detection.
		// Roughly one branch in nine is genuinely data-random, yielding
		// the ~5% mispredict rate SPECINT shows in Figure 12.
		for i := 0; i < 64; i++ {
			t.Load(data + pos)
			pos = (pos + 4) % (16 << 20)
			t.ALU(6)
			bc++
			if bc%9 == 0 {
				t.BranchSite(600, rng.Float64() < 0.5)
			} else {
				t.BranchSite(601+i%8, i%4 != 3)
			}
			if i%8 == 0 {
				h := rng.Uint64() % (512 << 10)
				t.Load(table + h&^7)
				t.Store(table + h&^7)
			}
		}
		// mcf-like pointer chase: dependent loads over a mid-size graph.
		for i := 0; i < 8; i++ {
			ptr = (ptr*2654435761 + 977) % (3 << 19)
			t.Load(list + ptr&^7)
			t.ALU(5)
			bc++
			if bc%9 == 0 {
				t.BranchSite(620, rng.Float64() < 0.5)
			} else {
				t.BranchSite(621, i < 7)
			}
		}
	}
}

// TraceSPECFP mixes the class's two signature phases: a cache-resident
// Jacobi stencil (the dense compute of milc/lbm inner tiles) and streaming
// triad passes alternating between an L3-resident field and a cold
// multi-GB field — together giving SPECFP's moderate L2 miss rate, mixed
// L3 hit ratio and noticeable DTLB pressure over a tiny code footprint.
func TraceSPECFP(t *memtrace.Tracer, n int) {
	grid := t.Alloc(int64(n * n * 8))
	out := t.Alloc(int64(n * n * 8))
	warmField := t.Alloc(8 << 20)
	coldField := t.Alloc(256 << 20)
	var coldPos uint64
	sweep := 0
	for {
		// Stencil sweep over the resident grid.
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j += 4 {
				idx := uint64(i*n + j)
				t.Load(grid + (idx-uint64(n))*8)
				t.Load(grid + (idx+uint64(n))*8)
				t.Load(grid + (idx-1)*8)
				t.Load(grid + (idx+1)*8)
				t.FPU(14)
				t.ALU(6)
				t.Store(out + idx*8)
			}
		}
		grid, out = out, grid
		sweep++
		// Triad pass: even sweeps stream the L3-resident field, odd
		// sweeps advance through the cold field.
		base, size := warmField, uint64(8<<20)
		if sweep%2 == 1 {
			base, size = coldField, uint64(256<<20)
		}
		for k := 0; k < 24576; k++ {
			t.Load(base + coldPos%size)
			t.FPU(2)
			t.Store(base + (coldPos+size/2)%size)
			coldPos += 8
		}
		// Gather phase: page-strided accesses (sparse matrix indices).
		for k := uint64(0); k < 512; k++ {
			t.Load(coldField + (coldPos+k*4168)%(256<<20))
		}
	}
}
