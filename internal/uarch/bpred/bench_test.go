package bpred

import "testing"

// benchBranches feeds branch a seeded stream of 1 K branch sites with
// random outcomes.
func benchBranches(b *testing.B, branch func(pc uint64, taken bool)) {
	b.Helper()
	x := uint64(88172645463325252)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		branch(0x400000+(x&0x3FF0), x&0x10000 != 0)
	}
}

func benchPredictor(b *testing.B, p Predictor) {
	b.Helper()
	benchBranches(b, func(pc uint64, taken bool) {
		p.Predict(pc)
		p.Update(pc, taken)
	})
}

func BenchmarkGshare(b *testing.B)     { benchPredictor(b, NewGshare(14)) }
func BenchmarkBimodal(b *testing.B)    { benchPredictor(b, NewBimodal(14)) }
func BenchmarkTournament(b *testing.B) { benchPredictor(b, NewTournament(14)) }

// BenchmarkTournamentFused is the core model's call on the default
// predictor: one PredictUpdate on the concrete type, same stream.
func BenchmarkTournamentFused(b *testing.B) {
	p := NewTournament(14)
	benchBranches(b, func(pc uint64, taken bool) { p.PredictUpdate(pc, taken) })
}
