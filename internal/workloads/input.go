package workloads

import "dcbench/internal/mapreduce"

// genInput is an InputFormat backed by a deterministic per-split generator.
// Every split stands for one DFS block (blockSize simulated bytes, except a
// possibly short tail) realised by a small number of real records.
type genInput struct {
	splits   int
	simBytes int64 // total simulated bytes over all splits
	gen      func(split int) []mapreduce.KV
}

// newGenInput sizes an input at simBytes and realises each split with gen.
func newGenInput(simBytes int64, gen func(split int) []mapreduce.KV) *genInput {
	return &genInput{splits: splits(simBytes), simBytes: simBytes, gen: gen}
}

// NumSplits implements mapreduce.InputFormat.
func (g *genInput) NumSplits() int { return g.splits }

// Split implements mapreduce.InputFormat.
func (g *genInput) Split(i int) ([]mapreduce.KV, int64) {
	sb := blockSize
	if i == g.splits-1 {
		if tail := g.simBytes - int64(g.splits-1)*blockSize; tail > 0 && tail < blockSize {
			sb = tail
		}
	}
	return g.gen(i), sb
}

// splitSeed derives a per-split generator seed that is stable across runs
// and split counts.
func splitSeed(base uint64, split int) uint64 {
	return base ^ (uint64(split)+1)*0x9E3779B97F4A7C15
}
