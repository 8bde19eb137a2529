// Package bpred implements the core model's branch direction predictor —
// a bimodal/gshare tournament standing in for the Westmere hybrid
// predictor, with kinds that freeze some of its tables for the "would a
// simpler predictor do?" ablation the paper's Section IV-E suggests — plus
// a branch target buffer.
package bpred

// Kind selects which of a Tournament's tables train. Every table starts at
// 0 (strongly not-taken), so a frozen table keeps predicting not-taken.
type Kind uint8

const (
	// KindTournament, the zero value, trains all three tables.
	KindTournament Kind = iota
	// KindBimodal freezes the chooser on the bimodal table and trains only
	// that table: exactly a bimodal predictor.
	KindBimodal
	// KindStatic trains nothing: exactly static-not-taken.
	KindStatic
)

// Tournament combines a bimodal table of per-PC 2-bit counters (instant
// convergence on biased branches) with a gshare table indexed by PC xor
// global history (pattern capture) under a per-PC chooser, the structure
// of the hybrid predictors in Nehalem/Westmere-class cores.
type Tournament struct {
	Kind Kind

	mask    uint64
	history uint64
	bimodal []uint8
	gshare  []uint8
	meta    []uint8 // 0-1: prefer bimodal, 2-3: prefer gshare
}

// NewTournament builds a full tournament predictor with 2^bits entries per
// table.
func NewTournament(bits uint) *Tournament {
	return &Tournament{
		mask:    (1 << bits) - 1,
		bimodal: make([]uint8, 1<<bits),
		gshare:  make([]uint8, 1<<bits),
		meta:    make([]uint8, 1<<bits),
	}
}

// Predict returns the predicted direction for the branch at pc.
func (t *Tournament) Predict(pc uint64) bool {
	if t.meta[(pc>>2)&t.mask] >= 2 {
		return t.gshare[((pc>>2)^t.history)&t.mask] >= 2
	}
	return t.bimodal[(pc>>2)&t.mask] >= 2
}

// Update trains the tables t.Kind does not freeze with the branch's outcome.
func (t *Tournament) Update(pc uint64, taken bool) {
	if t.Kind == KindStatic {
		return
	}
	bc := &t.bimodal[(pc>>2)&t.mask]
	if t.Kind == KindBimodal {
		train(bc, taken)
		return
	}
	gc := &t.gshare[((pc>>2)^t.history)&t.mask]
	if b, g := *bc >= 2, *gc >= 2; b != g {
		train(&t.meta[(pc>>2)&t.mask], g == taken)
	}
	train(bc, taken)
	train(gc, taken)
	t.history = ((t.history << 1) | b2u(taken)) & t.mask
}

// PredictUpdate is Predict followed by Update with the three table indices
// computed once: the core model's per-branch call.
func (t *Tournament) PredictUpdate(pc uint64, taken bool) bool {
	bc := &t.bimodal[(pc>>2)&t.mask]
	gc := &t.gshare[((pc>>2)^t.history)&t.mask]
	mc := &t.meta[(pc>>2)&t.mask]
	b, g := *bc >= 2, *gc >= 2
	pred := b
	if *mc >= 2 {
		pred = g
	}
	switch t.Kind {
	case KindTournament:
		if b != g {
			train(mc, g == taken)
		}
		train(bc, taken)
		train(gc, taken)
		t.history = ((t.history << 1) | b2u(taken)) & t.mask
	case KindBimodal:
		train(bc, taken)
	}
	return pred
}

// Reset clears all learned state, returning the predictor to its
// just-constructed condition so a pooled core can be reused across
// workloads without history leaking between runs. The kind is kept.
func (t *Tournament) Reset() {
	t.history = 0
	clear(t.bimodal)
	clear(t.gshare)
	clear(t.meta)
}

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
