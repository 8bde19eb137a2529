// Package hpcc implements the seven HPC Challenge benchmarks the paper
// compares against (Section III-C.1): HPL, DGEMM, STREAM, PTRANS,
// RandomAccess, FFT and COMM. The traced variants (Trace*) are what the
// simulator runs: each emits a synthetic instruction stream through a
// memtrace.Tracer that follows its benchmark's loop structure and access
// pattern — dense FP streams for HPL/DGEMM, pure bandwidth for STREAM,
// dependent random updates for RandomAccess — without computing any
// values. The pure kernels beside them (dgemm, luSolve, streamTriad,
// transpose, gups, fft) compute for real; they are unit-tested references
// that no traced variant calls yet, kept for the traced variants to run
// on seeded data.
package hpcc

import (
	"math"

	"dcbench/internal/memtrace"
	"dcbench/internal/sim"
)

// --- DGEMM ---

// dgemm computes C = A*B for n x n row-major matrices.
func dgemm(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	return c
}

// TraceDGEMM emits the ikj-order DGEMM access pattern: streaming rows of B
// and C with A cached, the classic high-ILP dense kernel.
func TraceDGEMM(t *memtrace.Tracer, n int) {
	aBase := t.Alloc(int64(n * n * 8))
	bBase := t.Alloc(int64(n * n * 8))
	cBase := t.Alloc(int64(n * n * 8))
	for {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				t.Load(aBase + uint64(i*n+k)*8)
				for j := 0; j < n; j += 8 { // one line of B/C per iteration
					t.Load(bBase + uint64(k*n+j)*8)
					t.FPU(4) // fused multiply-adds over the line
					t.Store(cBase + uint64(i*n+j)*8)
				}
			}
		}
	}
}

// --- HPL (LU factorisation with partial pivoting) ---

// luSolve solves Ax=b by in-place LU decomposition with partial pivoting,
// returning x. A is n x n row-major and is overwritten.
func luSolve(a []float64, b []float64, n int) []float64 {
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot.
		best, bestAbs := col, math.Abs(a[piv[col]*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[piv[r]*n+col]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		piv[col], piv[best] = piv[best], piv[col]
		pc := piv[col]
		for r := col + 1; r < n; r++ {
			pr := piv[r]
			f := a[pr*n+col] / a[pc*n+col]
			a[pr*n+col] = f
			for j := col + 1; j < n; j++ {
				a[pr*n+j] -= f * a[pc*n+j]
			}
		}
	}
	// Forward substitution (Ly = Pb).
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[piv[i]]
		for j := 0; j < i; j++ {
			y[i] -= a[piv[i]*n+j] * y[j]
		}
	}
	// Back substitution (Ux = y).
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		x[i] = y[i]
		for j := i + 1; j < n; j++ {
			x[i] -= a[piv[i]*n+j] * x[j]
		}
		x[i] /= a[piv[i]*n+i]
	}
	return x
}

// TraceHPL emits the LU elimination access pattern: row-streaming updates
// with high FP intensity and very regular branches.
func TraceHPL(t *memtrace.Tracer, n int) {
	aBase := t.Alloc(int64(n * n * 8))
	for {
		for col := 0; col < n; col++ {
			for r := col + 1; r < n; r++ {
				t.Load(aBase + uint64(r*n+col)*8)
				for j := col + 1; j < n; j += 8 {
					t.Load(aBase + uint64(col*n+j)*8)
					t.Load(aBase + uint64(r*n+j)*8)
					t.FPU(4)
					t.Store(aBase + uint64(r*n+j)*8)
				}
			}
		}
	}
}

// --- STREAM (triad) ---

// streamTriad computes a[i] = b[i] + s*c[i], returning a checksum.
func streamTriad(b, c []float64, s float64) float64 {
	sum := 0.0
	for i := range b {
		v := b[i] + s*c[i]
		sum += v
	}
	return sum
}

// TraceStream emits the triad pattern over arrays far larger than the LLC:
// pure memory bandwidth, no reuse, minimal branching.
func TraceStream(t *memtrace.Tracer, elems int) {
	aBase := t.Alloc(int64(elems * 8))
	bBase := t.Alloc(int64(elems * 8))
	cBase := t.Alloc(int64(elems * 8))
	for {
		for i := 0; i < elems; i++ {
			t.Load(bBase + uint64(i)*8)
			t.Load(cBase + uint64(i)*8)
			t.FPU(1)
			t.Store(aBase + uint64(i)*8)
		}
	}
}

// --- PTRANS (matrix transpose) ---

// transpose returns the transpose of an n x n row-major matrix.
func transpose(a []float64, n int) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[j*n+i] = a[i*n+j]
		}
	}
	return out
}

// TracePTRANS emits the blocked transpose pattern real PTRANS
// implementations use (8x8 tiles): line-granular reads and writes whose
// column strides still defeat L2/L3 and the DTLB on large matrices.
func TracePTRANS(t *memtrace.Tracer, n int) {
	aBase := t.Alloc(int64(n * n * 8))
	bBase := t.Alloc(int64(n * n * 8))
	const tile = 8
	for {
		for bi := 0; bi < n; bi += tile {
			for bj := 0; bj < n; bj += tile {
				// Read 8 row segments, write 8 column segments.
				for i := 0; i < tile; i++ {
					t.Load(aBase + uint64((bi+i)*n+bj)*8)
					t.ALU(45) // register-blocked shuffles and packing
					t.Store(bBase + uint64((bj+i)*n+bi)*8)
				}
			}
		}
	}
}

// --- RandomAccess (GUPS) ---

// gups performs the HPCC random-access update loop over table (a power of
// two length), returning the table for verification.
func gups(table []uint64, updates int) []uint64 {
	mask := uint64(len(table) - 1)
	x := uint64(1)
	for i := 0; i < updates; i++ {
		x = x<<1 ^ (uint64(int64(x)>>63) & 7)
		table[x&mask] ^= x
	}
	return table
}

// TraceGUPS emits the dependent random update pattern — the worst case for
// every cache and TLB level — with the heavy kernel involvement the paper
// observes (~31% kernel instructions from copy_user string operations).
func TraceGUPS(t *memtrace.Tracer, tableBytes int64) {
	base := t.Alloc(tableBytes)
	mask := uint64(tableBytes-1) &^ 7
	x := uint64(1)
	n := 0
	for {
		// Generate and bucket a batch of updates (the reference code
		// batches 1024 updates for the MPI exchange), then apply.
		x = x<<1 ^ (uint64(int64(x)>>63) & 7)
		t.ALU(10) // generator + bucketing
		addr := base + (x & mask)
		t.Load(addr)
		t.Store(addr)
		n++
		// The MPI-style remote-update exchange: batched syscalls.
		if n%32 == 0 {
			t.Syscall(300, 8<<10)
		}
	}
}

// --- FFT ---

// fft computes an in-place radix-2 Cooley-Tukey FFT of complex data given
// as interleaved re/im pairs. Length must be a power of two.
func fft(re, im []float64) {
	n := len(re)
	if n&(n-1) != 0 {
		panic("hpcc: FFT length must be a power of two")
	}
	// Bit reversal.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for span := 1; span < n; span <<= 1 {
		ang := -math.Pi / float64(span)
		for start := 0; start < n; start += span << 1 {
			for k := 0; k < span; k++ {
				wre, wim := math.Cos(ang*float64(k)), math.Sin(ang*float64(k))
				i, j := start+k, start+k+span
				tre := wre*re[j] - wim*im[j]
				tim := wre*im[j] + wim*re[j]
				re[j], im[j] = re[i]-tre, im[i]-tim
				re[i], im[i] = re[i]+tre, im[i]+tim
			}
		}
	}
}

// TraceFFT emits the butterfly access pattern: strided pairs with
// log-depth reuse, intermediate locality between DGEMM and STREAM.
func TraceFFT(t *memtrace.Tracer, n int) {
	reBase := t.Alloc(int64(n * 8))
	imBase := t.Alloc(int64(n * 8))
	for {
		for span := 1; span < n; span <<= 1 {
			for start := 0; start < n; start += span << 1 {
				for k := 0; k < span; k++ {
					i, j := start+k, start+k+span
					t.Load(reBase + uint64(j)*8)
					t.Load(imBase + uint64(j)*8)
					t.FPU(12) // butterfly + twiddle evaluation
					t.ALU(6)
					t.Store(reBase + uint64(i)*8)
					t.Store(imBase + uint64(i)*8)
				}
			}
		}
	}
}

// --- COMM (interconnect ping-pong) ---

// TraceCOMM emits the b_eff-style communication pattern: small compute
// bursts between message syscalls copying buffers in and out.
func TraceCOMM(t *memtrace.Tracer) {
	rng := sim.NewRNG(97)
	buf := t.Alloc(2 << 20)
	for {
		// Pack the message buffer, then hand it to the transport.
		for i := uint64(0); i < 48; i++ {
			t.Load(buf + (i*64)%(2<<20))
		}
		t.ALU(150)
		size := int64(1) << (6 + rng.Intn(8)) // 64 B .. 8 KB messages
		t.Syscall(180, size)
	}
}
