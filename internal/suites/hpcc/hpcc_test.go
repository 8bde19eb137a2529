package hpcc

import (
	"math"
	"testing"
	"testing/quick"

	"dcbench/internal/memtrace"
	"dcbench/internal/sim"
)

func TestDGEMMIdentity(t *testing.T) {
	n := 8
	a := make([]float64, n*n)
	id := make([]float64, n*n)
	rng := sim.NewRNG(3)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c := dgemm(a, id, n)
	for i := range a {
		if math.Abs(c[i]-a[i]) > 1e-12 {
			t.Fatalf("A*I != A at %d: %v vs %v", i, c[i], a[i])
		}
	}
}

func TestDGEMMAssociatesWithManual(t *testing.T) {
	// 2x2 hand check.
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c := dgemm(a, b, 2)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestLUSolveRecoversSolution(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		n := 12
		rng := sim.NewRNG(seed)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		// Diagonally dominate to guarantee solvability.
		for i := 0; i < n; i++ {
			a[i*n+i] += 10
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		// b = A * xTrue.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * xTrue[j]
			}
		}
		aCopy := append([]float64(nil), a...)
		x := luSolve(aCopy, b, n)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSolvePivots(t *testing.T) {
	// Zero leading diagonal demands pivoting.
	a := []float64{0, 1, 1, 0}
	b := []float64{2, 3}
	x := luSolve(append([]float64(nil), a...), b, 2)
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestStreamTriad(t *testing.T) {
	b := []float64{1, 2, 3}
	c := []float64{10, 20, 30}
	if got := streamTriad(b, c, 2); got != 1+20+2+40+3+60 {
		t.Fatalf("triad sum = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		n := 9
		rng := sim.NewRNG(seed)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Float64()
		}
		tt := transpose(transpose(a, n), n)
		for i := range a {
			if tt[i] != a[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGUPSDeterministicAndTouches(t *testing.T) {
	t1 := gups(make([]uint64, 1024), 10000)
	t2 := gups(make([]uint64, 1024), 10000)
	touched := 0
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("GUPS nondeterministic")
		}
		if t1[i] != 0 {
			touched++
		}
	}
	if touched < 512 {
		t.Fatalf("GUPS touched only %d/1024 slots", touched)
	}
}

func TestFFTRoundTripViaParseval(t *testing.T) {
	n := 256
	rng := sim.NewRNG(5)
	re := make([]float64, n)
	im := make([]float64, n)
	var timeEnergy float64
	for i := range re {
		re[i] = rng.NormFloat64()
		timeEnergy += re[i] * re[i]
	}
	fft(re, im)
	var freqEnergy float64
	for i := range re {
		freqEnergy += re[i]*re[i] + im[i]*im[i]
	}
	// Parseval: sum |X|^2 = N * sum |x|^2.
	if math.Abs(freqEnergy/float64(n)-timeEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", freqEnergy/float64(n), timeEnergy)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	n := 16
	re := make([]float64, n)
	im := make([]float64, n)
	re[0] = 1
	fft(re, im)
	for i := range re {
		if math.Abs(re[i]-1) > 1e-12 || math.Abs(im[i]) > 1e-12 {
			t.Fatalf("impulse FFT wrong at %d: %v+%vi", i, re[i], im[i])
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fft(make([]float64, 12), make([]float64, 12))
}

func TestTraceGeneratorsProduceMemoryOps(t *testing.T) {
	cases := map[string]func(tr *memtrace.Tracer){
		"dgemm":  func(tr *memtrace.Tracer) { TraceDGEMM(tr, 64) },
		"hpl":    func(tr *memtrace.Tracer) { TraceHPL(tr, 64) },
		"stream": func(tr *memtrace.Tracer) { TraceStream(tr, 1<<20) },
		"ptrans": func(tr *memtrace.Tracer) { TracePTRANS(tr, 256) },
		"gups":   func(tr *memtrace.Tracer) { TraceGUPS(tr, 1<<26) },
		"fft":    func(tr *memtrace.Tracer) { TraceFFT(tr, 1<<14) },
		"comm":   TraceCOMM,
	}
	for name, gen := range cases {
		insts := memtrace.Collect(memtrace.NewReader(memtrace.Profile{MaxInstrs: 20000}, gen), 20000)
		if len(insts) != 20000 {
			t.Fatalf("%s: trace length %d", name, len(insts))
		}
		mem := 0
		for _, in := range insts {
			if in.Op == memtrace.OpLoad || in.Op == memtrace.OpStore {
				mem++
			}
		}
		if mem == 0 {
			t.Fatalf("%s: no memory operations", name)
		}
	}
}
