package workloads_test

import (
	"context"
	"runtime"
	"testing"

	"dcbench/internal/report"
	"dcbench/internal/workloads"
)

// matrixAllocBudget caps the bytes one serial pass over the 33-cell matrix
// may allocate. The cluster stack allocated ~690 MB per pass before map
// output, grouping, SVM feature rows and sim events moved onto reused
// buffers; this guard keeps it from drifting back.
const matrixAllocBudget = 420e6

// runMatrix runs Figure 2's full matrix (All() x {1, 4, 8} slaves) at the
// report defaults on the given number of workers.
func runMatrix(tb testing.TB, workers int) {
	o := report.DefaultOptions()
	if _, err := workloads.SlaveSweepMemo(context.Background(), nil, workloads.All(), []int{1, 4, 8}, o.Scale, o.Seed, workers); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkMatrix is one cold pass of the matrix; B/op is the number the
// allocation budget guards.
func BenchmarkMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runMatrix(b, 0)
	}
}

func TestMatrixAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runMatrix(t, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > matrixAllocBudget {
		t.Fatalf("one serial matrix allocated %.1f MB, budget %.1f MB", float64(got)/1e6, float64(matrixAllocBudget)/1e6)
	}
}
