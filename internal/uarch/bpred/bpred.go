// Package bpred implements the core model's branch direction predictors —
// a bimodal/gshare tournament (the default, standing in for the Westmere
// hybrid predictor), and its components plus static-not-taken on their own
// for the "would a simpler predictor do?" ablation the paper's Section IV-E
// suggests — plus a branch target buffer.
package bpred

// Predictor predicts conditional branch directions and learns outcomes.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
	// Name identifies the predictor in reports.
	Name() string
	// Reset clears all learned state, returning the predictor to its
	// just-constructed condition so a pooled core can be reused across
	// workloads without history leaking between runs.
	Reset()
}

// Gshare is a global-history predictor: 2-bit counters indexed by
// PC xor global history.
type Gshare struct {
	bits    uint
	mask    uint64
	history uint64
	table   []uint8
}

// NewGshare builds a gshare predictor with 2^bits counters.
func NewGshare(bits uint) *Gshare {
	return &Gshare{
		bits:  bits,
		mask:  (1 << bits) - 1,
		table: make([]uint8, 1<<bits),
	}
}

// Name implements Predictor.
func (g *Gshare) Name() string { return "gshare" }

func (g *Gshare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update implements Predictor.
func (g *Gshare) Update(pc uint64, taken bool) {
	train(&g.table[g.index(pc)], taken)
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
}

// Reset implements Predictor.
func (g *Gshare) Reset() {
	g.history = 0
	clear(g.table)
}

// Bimodal is a per-PC 2-bit counter table without global history.
type Bimodal struct {
	mask  uint64
	table []uint8
}

// NewBimodal builds a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	return &Bimodal{mask: (1 << bits) - 1, table: make([]uint8, 1<<bits)}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[(pc>>2)&b.mask] >= 2 }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	train(&b.table[(pc>>2)&b.mask], taken)
}

// Reset implements Predictor.
func (b *Bimodal) Reset() { clear(b.table) }

// Tournament combines a bimodal predictor (instant convergence on biased
// branches) with gshare (pattern capture) under a per-PC chooser, the
// structure of the hybrid predictors in Nehalem/Westmere-class cores.
type Tournament struct {
	bimodal *Bimodal
	gshare  *Gshare
	meta    []uint8 // 0-1: prefer bimodal, 2-3: prefer gshare
	mask    uint64
}

// NewTournament builds a tournament predictor with 2^bits entries per
// component.
func NewTournament(bits uint) *Tournament {
	return &Tournament{
		bimodal: NewBimodal(bits),
		gshare:  NewGshare(bits),
		meta:    make([]uint8, 1<<bits),
		mask:    (1 << bits) - 1,
	}
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.meta[(pc>>2)&t.mask] >= 2 {
		return t.gshare.Predict(pc)
	}
	return t.bimodal.Predict(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	b := t.bimodal.Predict(pc)
	g := t.gshare.Predict(pc)
	if b != g {
		train(&t.meta[(pc>>2)&t.mask], g == taken)
	}
	t.bimodal.Update(pc, taken)
	t.gshare.Update(pc, taken)
}

// PredictUpdate is Predict followed by Update with the three table indices
// computed once: the core model's per-branch call when the tournament is
// the installed predictor.
func (t *Tournament) PredictUpdate(pc uint64, taken bool) bool {
	bc := &t.bimodal.table[(pc>>2)&t.bimodal.mask]
	gc := &t.gshare.table[t.gshare.index(pc)]
	mc := &t.meta[(pc>>2)&t.mask]
	b, g := *bc >= 2, *gc >= 2
	pred := b
	if *mc >= 2 {
		pred = g
	}
	if b != g {
		train(mc, g == taken)
	}
	train(bc, taken)
	train(gc, taken)
	t.gshare.history = ((t.gshare.history << 1) | b2u(taken)) & t.gshare.mask
	return pred
}

// Reset implements Predictor.
func (t *Tournament) Reset() {
	t.bimodal.Reset()
	t.gshare.Reset()
	clear(t.meta)
}

// Static always predicts not taken.
type Static struct{}

// Name implements Predictor.
func (Static) Name() string { return "static-not-taken" }

// Predict implements Predictor.
func (Static) Predict(uint64) bool { return false }

// Update implements Predictor.
func (Static) Update(uint64, bool) {}

// Reset implements Predictor.
func (Static) Reset() {}

// train moves a 2-bit saturating counter towards up.
func train(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer: taken branches whose targets
// are absent cost a front-end redirect even when the direction was right.
type BTB struct {
	mask    uint64
	tags    []uint64
	targets []uint64

	Hits   int64
	Misses int64
}

// NewBTB builds a BTB with 2^bits entries.
func NewBTB(bits uint) *BTB {
	return &BTB{
		mask:    (1 << bits) - 1,
		tags:    make([]uint64, 1<<bits),
		targets: make([]uint64, 1<<bits),
	}
}

// Lookup checks whether pc's target is cached and correct.
func (b *BTB) Lookup(pc, target uint64) bool {
	i := (pc >> 2) & b.mask
	if b.tags[i] == pc+1 && b.targets[i] == target {
		b.Hits++
		return true
	}
	b.Misses++
	b.tags[i] = pc + 1
	b.targets[i] = target
	return false
}

// Reset clears all cached targets and counters.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.targets)
	b.Hits = 0
	b.Misses = 0
}
