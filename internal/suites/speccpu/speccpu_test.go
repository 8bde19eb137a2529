package speccpu

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"dcbench/internal/memtrace"
)

func TestRLERoundTrip(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		return bytes.Equal(rleDecompress(rleCompress(data)), data)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLECompresses(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 1000)
	if enc := rleCompress(data); len(enc) >= len(data)/10 {
		t.Fatalf("RLE on runs: %d bytes from %d", len(enc), len(data))
	}
}

func TestListSum(t *testing.T) {
	next := []int{1, 2, 0}
	vals := []int64{10, 20, 30}
	if got := listSum(next, vals, 0, 6); got != 120 {
		t.Fatalf("list sum = %d, want 120", got)
	}
}

func TestStencilConvergesToMean(t *testing.T) {
	n := 16
	grid := make([]float64, n*n)
	for i := range grid {
		grid[i] = float64(i % 7)
	}
	// Repeated Jacobi sweeps with zero boundary must decay the interior.
	for it := 0; it < 500; it++ {
		grid = stencil2D(grid, n)
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			if math.Abs(grid[i*n+j]) > 0.01 {
				t.Fatalf("stencil did not decay: grid[%d][%d] = %v", i, j, grid[i*n+j])
			}
		}
	}
}

func TestStencilPreservesConstant(t *testing.T) {
	// One sweep of a constant interior with matching boundary keeps the
	// deep interior constant.
	n := 8
	grid := make([]float64, n*n)
	for i := range grid {
		grid[i] = 3
	}
	out := stencil2D(grid, n)
	for i := 2; i < n-2; i++ {
		for j := 2; j < n-2; j++ {
			if out[i*n+j] != 3 {
				t.Fatalf("constant not preserved at %d,%d: %v", i, j, out[i*n+j])
			}
		}
	}
}

func TestTraceGenerators(t *testing.T) {
	for name, gen := range map[string]func(tr *memtrace.Tracer){
		"specint": TraceSPECINT,
		"specfp":  func(tr *memtrace.Tracer) { TraceSPECFP(tr, 512) },
	} {
		insts := memtrace.Collect(memtrace.NewReader(memtrace.Profile{MaxInstrs: 20000}, gen), 20000)
		if len(insts) != 20000 {
			t.Fatalf("%s: short trace", name)
		}
		branches := 0
		for _, in := range insts {
			if in.Op == memtrace.OpBranch {
				branches++
			}
		}
		if branches == 0 {
			t.Fatalf("%s: no branches", name)
		}
	}
}
