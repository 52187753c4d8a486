package graph

import "asti/internal/rng"

// ApplyTrivalency assigns each edge a probability drawn uniformly from
// {0.1, 0.01, 0.001} — the TRIVALENCY weighting of the influence-
// maximization benchmark literature (Chen et al., KDD 2010), the standard
// alternative to the weighted-cascade convention the paper's evaluation
// uses. The draw is a pure function of (seed, u, v), so the in- and
// out-CSR views stay consistent and reapplication is idempotent.
func (g *Graph) ApplyTrivalency(seed uint64) {
	levels := [3]float32{0.1, 0.01, 0.001}
	pick := func(u, v int32) float32 {
		h := rng.SplitMix64(seed ^ uint64(uint32(u))<<32 ^ uint64(uint32(v)))
		return levels[h%3]
	}
	for u := int32(0); u < g.N(); u++ {
		adj := g.OutNeighbors(u)
		off := g.OutOffset(u)
		for i, v := range adj {
			g.outProb[off+int64(i)] = pick(u, v)
		}
	}
	for v := int32(0); v < g.N(); v++ {
		for i := g.inOff[v]; i < g.inOff[v+1]; i++ {
			g.inEdge[i].P = pick(g.inEdge[i].Src, v)
		}
	}
}
