package analysis

// PageRankStep performs one power iteration of PageRank with damping d over
// a directed graph in adjacency-list form (adj[i] = nodes i links to).
// Dangling mass is redistributed uniformly, keeping ranks a probability
// distribution.
func PageRankStep(adj [][]int, ranks []float64, d float64) []float64 {
	n := len(adj)
	next := make([]float64, n)
	base := (1 - d) / float64(n)
	dangling := 0.0
	for i, outs := range adj {
		if len(outs) == 0 {
			dangling += ranks[i]
			continue
		}
		share := d * ranks[i] / float64(len(outs))
		for _, t := range outs {
			next[t] += share
		}
	}
	extra := d * dangling / float64(n)
	for i := range next {
		next[i] += base + extra
	}
	return next
}
