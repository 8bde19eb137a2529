package sim

import "testing"

func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.after(1, func() {})
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Go(func(p *Process) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkZipf(b *testing.B) {
	r := NewRNG(1)
	z := NewZipf(r, 4096, 1.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
