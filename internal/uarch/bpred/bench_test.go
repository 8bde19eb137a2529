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

// BenchmarkTournament is the split Predict-then-Update call.
func BenchmarkTournament(b *testing.B) {
	p := NewTournament(14)
	benchBranches(b, func(pc uint64, taken bool) {
		p.Predict(pc)
		p.Update(pc, taken)
	})
}

// BenchmarkTournamentFused is the core model's per-branch call, one
// PredictUpdate per branch, for each kind.
func BenchmarkTournamentFused(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			p := newKind(14, k.kind)
			benchBranches(b, func(pc uint64, taken bool) { p.PredictUpdate(pc, taken) })
		})
	}
}
