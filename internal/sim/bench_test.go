package sim

import "testing"

// BenchmarkEventLoop times one wake-up through the heap: 64 sleepers each
// sleep b.N/64 times, so the heap holds 64 wake-ups and most pops hand
// control to another process.
func BenchmarkEventLoop(b *testing.B) {
	const procs = 64
	e := NewEngine()
	for i := 0; i < procs; i++ {
		d := 1 + float64(i)/procs
		e.Go(func(p *Process) {
			for j := 0; j < b.N/procs+1; j++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessSwitch times one wake-up. self: a lone sleeper pops its
// own wake-up and never hands over. pingpong: two processes alternate, so
// every wake-up hands control to the other goroutine.
func BenchmarkProcessSwitch(b *testing.B) {
	b.Run("self", func(b *testing.B) {
		e := NewEngine()
		e.Go(func(p *Process) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
		b.ResetTimer()
		e.Run()
	})
	b.Run("pingpong", func(b *testing.B) {
		e := NewEngine()
		for k := 0; k < 2; k++ {
			e.Go(func(p *Process) {
				for i := k; i < b.N; i += 2 {
					p.Sleep(1)
				}
			})
		}
		b.ResetTimer()
		e.Run()
	})
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
