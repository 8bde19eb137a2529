package bpred

import (
	"reflect"
	"testing"
)

// predictor is what the tests drive: a Tournament of any kind, or one of
// the reference predictors below.
type predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// newKind builds a 2^bits-entry tournament of the given kind.
func newKind(bits uint, k Kind) *Tournament {
	t := NewTournament(bits)
	t.Kind = k
	return t
}

// refBimodal, refGshare, refTournament and refStatic are the standalone
// predictors the kinds replaced, kept as oracles: each kind must predict
// exactly what its reference does, branch for branch.

// refBimodal is a per-PC 2-bit counter table without global history.
type refBimodal struct {
	mask  uint64
	table []uint8
}

func newRefBimodal(bits uint) *refBimodal {
	return &refBimodal{mask: (1 << bits) - 1, table: make([]uint8, 1<<bits)}
}

func (b *refBimodal) Predict(pc uint64) bool { return b.table[(pc>>2)&b.mask] >= 2 }

func (b *refBimodal) Update(pc uint64, taken bool) { train(&b.table[(pc>>2)&b.mask], taken) }

// refGshare is a global-history predictor: 2-bit counters indexed by PC
// xor global history.
type refGshare struct {
	mask    uint64
	history uint64
	table   []uint8
}

func newRefGshare(bits uint) *refGshare {
	return &refGshare{mask: (1 << bits) - 1, table: make([]uint8, 1<<bits)}
}

func (g *refGshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

func (g *refGshare) Predict(pc uint64) bool { return g.table[g.index(pc)] >= 2 }

func (g *refGshare) Update(pc uint64, taken bool) {
	train(&g.table[g.index(pc)], taken)
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
}

// refTournament picks between its bimodal and gshare components with a
// per-PC chooser trained only when they disagree.
type refTournament struct {
	bimodal *refBimodal
	gshare  *refGshare
	meta    []uint8
	mask    uint64
}

func newRefTournament(bits uint) *refTournament {
	return &refTournament{
		bimodal: newRefBimodal(bits),
		gshare:  newRefGshare(bits),
		meta:    make([]uint8, 1<<bits),
		mask:    (1 << bits) - 1,
	}
}

func (t *refTournament) Predict(pc uint64) bool {
	if t.meta[(pc>>2)&t.mask] >= 2 {
		return t.gshare.Predict(pc)
	}
	return t.bimodal.Predict(pc)
}

func (t *refTournament) Update(pc uint64, taken bool) {
	b := t.bimodal.Predict(pc)
	g := t.gshare.Predict(pc)
	if b != g {
		train(&t.meta[(pc>>2)&t.mask], g == taken)
	}
	t.bimodal.Update(pc, taken)
	t.gshare.Update(pc, taken)
}

// refStatic always predicts not taken.
type refStatic struct{}

func (refStatic) Predict(uint64) bool { return false }
func (refStatic) Update(uint64, bool) {}

var kinds = []struct {
	name string
	kind Kind
	ref  func() predictor
}{
	{"tournament", KindTournament, func() predictor { return newRefTournament(14) }},
	{"bimodal", KindBimodal, func() predictor { return newRefBimodal(14) }},
	{"static", KindStatic, func() predictor { return refStatic{} }},
}

// branchStream calls branch with 1 M seeded branches over 64 K sites,
// three quarters of them taken.
func branchStream(branch func(i int, pc uint64, taken bool)) {
	x := uint64(88172645463325252)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		branch(i, 0x400000+(x&0x3FFFC), x&(3<<40) != 0)
	}
}

func rate(p predictor, pcs []uint64, outcomes []bool) float64 {
	wrong := 0
	for i, pc := range pcs {
		if p.Predict(pc) != outcomes[i] {
			wrong++
		}
		p.Update(pc, outcomes[i])
	}
	return float64(wrong) / float64(len(pcs))
}

// TestKindsMatchReferencePredictors: each kind predicts exactly what the
// standalone predictor it replaced does, branch for branch.
func TestKindsMatchReferencePredictors(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			dut, ref := newKind(14, k.kind), k.ref()
			branchStream(func(i int, pc uint64, taken bool) {
				if got, want := dut.Predict(pc), ref.Predict(pc); got != want {
					t.Fatalf("branch %d (pc %#x): %s kind predicts %v, reference %v", i, pc, k.name, got, want)
				}
				dut.Update(pc, taken)
				ref.Update(pc, taken)
			})
		})
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	for _, k := range kinds[:2] {
		pcs := make([]uint64, 10000)
		outs := make([]bool, 10000)
		for i := range pcs {
			pcs[i] = 0x400000
			outs[i] = true
		}
		if r := rate(newKind(12, k.kind), pcs, outs); r > 0.01 {
			t.Fatalf("%s: always-taken mispredict rate %v", k.name, r)
		}
	}
}

func TestLoopPatternLearnedByGshare(t *testing.T) {
	// TTTN repeating: the tournament's gshare table resolves it with
	// history; bimodal alone cannot fully.
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
	g := rate(newKind(12, KindTournament), pcs, outs)
	pcs, outs = mk()
	b := rate(newKind(12, KindBimodal), pcs, outs)
	if g > 0.02 {
		t.Fatalf("tournament failed the loop pattern: %v", g)
	}
	if b < g {
		t.Fatalf("bimodal (%v) should not beat the tournament (%v) on patterned branches", b, g)
	}
}

func TestStaticPredictor(t *testing.T) {
	s := newKind(12, KindStatic)
	for range 4 {
		s.Update(0x1234, true)
	}
	if s.Predict(0x1234) || s.PredictUpdate(0x1234, true) {
		t.Fatal("static-not-taken predicted taken")
	}
}

func TestRandomBranchesNearChance(t *testing.T) {
	// An LCG-driven 50/50 branch should hover near 50% mispredicts for
	// any predictor (no pattern to learn).
	p := NewTournament(12)
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
	b := newKind(12, KindBimodal)
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

// TestPredictUpdateIsPredictThenUpdate: for every kind, the fused call
// returns what Predict would have and leaves every table as Update would
// have, over 1 M random branches.
func TestPredictUpdateIsPredictThenUpdate(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			fused, split := newKind(14, k.kind), newKind(14, k.kind)
			branchStream(func(i int, pc uint64, taken bool) {
				want := split.Predict(pc)
				split.Update(pc, taken)
				if got := fused.PredictUpdate(pc, taken); got != want {
					t.Fatalf("branch %d (pc %#x): PredictUpdate = %v, Predict = %v", i, pc, got, want)
				}
			})
			if !reflect.DeepEqual(fused, split) {
				t.Fatal("tables differ after identical streams")
			}
		})
	}
}
