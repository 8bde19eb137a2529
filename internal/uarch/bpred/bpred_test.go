package bpred

import (
	"reflect"
	"testing"
)

func rate(p Predictor, pcs []uint64, outcomes []bool) float64 {
	wrong := 0
	for i, pc := range pcs {
		if p.Predict(pc) != outcomes[i] {
			wrong++
		}
		p.Update(pc, outcomes[i])
	}
	return float64(wrong) / float64(len(pcs))
}

func TestAlwaysTakenLearned(t *testing.T) {
	for _, p := range []Predictor{NewGshare(12), NewBimodal(12)} {
		pcs := make([]uint64, 10000)
		outs := make([]bool, 10000)
		for i := range pcs {
			pcs[i] = 0x400000
			outs[i] = true
		}
		if r := rate(p, pcs, outs); r > 0.01 {
			t.Fatalf("%s: always-taken mispredict rate %v", p.Name(), r)
		}
	}
}

func TestLoopPatternLearnedByGshare(t *testing.T) {
	// TTTN repeating: gshare with history resolves it; bimodal cannot
	// fully.
	mk := func() ([]uint64, []bool) {
		pcs := make([]uint64, 20000)
		outs := make([]bool, 20000)
		for i := range pcs {
			pcs[i] = 0x400100
			outs[i] = i%4 != 3
		}
		return pcs, outs
	}
	pcs, outs := mk()
	g := rate(NewGshare(12), pcs, outs)
	pcs, outs = mk()
	b := rate(NewBimodal(12), pcs, outs)
	if g > 0.02 {
		t.Fatalf("gshare failed the loop pattern: %v", g)
	}
	if b < g {
		t.Fatalf("bimodal (%v) should not beat gshare (%v) on patterned branches", b, g)
	}
}

func TestStaticPredictor(t *testing.T) {
	s := Static{}
	if s.Predict(0x1234) {
		t.Fatal("static-not-taken predicted taken")
	}
	s.Update(0x1234, true) // no-op, must not panic
}

func TestRandomBranchesNearChance(t *testing.T) {
	// An LCG-driven 50/50 branch should hover near 50% mispredicts for
	// any predictor (no pattern to learn).
	p := NewGshare(12)
	x := uint64(12345)
	wrong := 0
	n := 50000
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		taken := x>>63 == 1
		if p.Predict(0x400200) != taken {
			wrong++
		}
		p.Update(0x400200, taken)
	}
	r := float64(wrong) / float64(n)
	if r < 0.4 || r > 0.6 {
		t.Fatalf("random-branch mispredict rate = %v, want ~0.5", r)
	}
}

func TestDistinctBranchesIsolatedInBimodal(t *testing.T) {
	b := NewBimodal(12)
	// Train pc1 taken, pc2 not-taken; they must not interfere.
	for i := 0; i < 100; i++ {
		b.Update(0x1000, true)
		b.Update(0x2000, false)
	}
	if !b.Predict(0x1000) || b.Predict(0x2000) {
		t.Fatal("bimodal entries interfered")
	}
}

func TestBTB(t *testing.T) {
	btb := NewBTB(8)
	if btb.Lookup(0x100, 0x500) {
		t.Fatal("cold BTB hit")
	}
	if !btb.Lookup(0x100, 0x500) {
		t.Fatal("warm BTB miss")
	}
	// Different target at the same pc is a miss (target changed).
	if btb.Lookup(0x100, 0x900) {
		t.Fatal("stale target treated as hit")
	}
	if btb.Hits != 1 || btb.Misses != 2 {
		t.Fatalf("counters = %d/%d", btb.Hits, btb.Misses)
	}
}

// TestPredictUpdateIsPredictThenUpdate: the fused call returns what Predict
// would have and leaves every table as Update would have, over 1 M random
// branches.
func TestPredictUpdateIsPredictThenUpdate(t *testing.T) {
	fused, split := NewTournament(14), NewTournament(14)
	x := uint64(88172645463325252)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc, taken := 0x400000+(x&0x3FFFC), x&(3<<40) != 0
		want := split.Predict(pc)
		split.Update(pc, taken)
		if got := fused.PredictUpdate(pc, taken); got != want {
			t.Fatalf("branch %d (pc %#x): PredictUpdate = %v, Predict = %v", i, pc, got, want)
		}
	}
	if !reflect.DeepEqual(fused, split) {
		t.Fatal("tables differ after identical streams")
	}
}
