// Package gen provides synthetic graph generators and the handcrafted
// fixtures from the paper's figures.
//
// The paper's evaluation uses SNAP datasets (NetHEPT, Epinions, Youtube,
// LiveJournal) that cannot be shipped with this reproduction. The
// generators here synthesize scale models with the properties the
// algorithms are actually sensitive to — power-law degree tails, a large
// weakly connected component, and the paper's weighted-cascade edge
// probabilities — so cross-dataset trends survive even though absolute
// numbers differ.
package gen

import (
	"fmt"

	"asti/internal/graph"
	"asti/internal/rng"
)

// PowerLawConfig parameterizes the preferential-attachment generator.
type PowerLawConfig struct {
	// Name labels the resulting graph.
	Name string
	// N is the number of nodes (≥ 2).
	N int32
	// AvgDeg is the target average number of generated edges per node.
	// For undirected graphs these are undirected edges (the stored
	// directed edge count is ~2·AvgDeg·N); for directed graphs they are
	// directed edges.
	AvgDeg float64
	// Directed selects directed output; undirected output stores each
	// edge in both directions (the paper's convention).
	Directed bool
	// UniformMix is the probability β of attaching an edge endpoint
	// uniformly at random instead of preferentially; it softens the degree
	// exponent. 0 gives the steepest tail; values around 0.1–0.3 resemble
	// the SNAP social graphs.
	UniformMix float64
	// LWCCFrac is the fraction of nodes in the largest weakly connected
	// component; the remaining nodes form many small independent
	// components (geometric sizes, mean ~4). 0 or 1 yields a single
	// connected component. NetHEPT's LWCC covers only 45% of its nodes
	// (paper Table 2) and that fragmentation is what drives its high seed
	// counts, so the scale model must reproduce it.
	LWCCFrac float64
	// Seed drives the generator.
	Seed uint64
}

// PowerLaw generates a preferential-attachment graph: nodes arrive one at
// a time and connect d(t) edges to existing nodes chosen proportionally
// to their current degree (with probability 1−β) or uniformly (β). d(t)
// is randomized between ⌊AvgDeg⌋ and ⌈AvgDeg⌉ so fractional average
// degrees are hit in expectation. For directed graphs each generated edge
// is oriented from the new node with probability 1/2 and toward it
// otherwise, giving both in- and out-degree heavy tails.
//
// Edge probabilities are initialized with the weighted-cascade convention
// p(u,v) = 1/indeg(v).
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("gen: power-law needs at least 2 nodes, got %d", cfg.N)
	}
	if cfg.AvgDeg <= 0 || cfg.AvgDeg >= float64(cfg.N) {
		return nil, fmt.Errorf("gen: average degree %v outside (0, n)", cfg.AvgDeg)
	}
	if cfg.UniformMix < 0 || cfg.UniformMix > 1 {
		return nil, fmt.Errorf("gen: uniform mix %v outside [0,1]", cfg.UniformMix)
	}
	if cfg.LWCCFrac < 0 || cfg.LWCCFrac > 1 {
		return nil, fmt.Errorf("gen: LWCC fraction %v outside [0,1]", cfg.LWCCFrac)
	}
	r := rng.New(cfg.Seed)
	b := graph.NewBuilder(cfg.N)

	expected := int(float64(cfg.N)*cfg.AvgDeg*2) + 4
	type edge struct{ u, v int32 }
	seen := make(map[edge]struct{}, expected/2)

	addEdge := func(u, v int32, endpoints *[]int32) bool {
		if u == v {
			return false
		}
		e := edge{u, v}
		if !cfg.Directed && u > v {
			e = edge{v, u}
		}
		if _, dup := seen[e]; dup {
			return false
		}
		seen[e] = struct{}{}
		if cfg.Directed {
			b.AddEdge(u, v, 0.1)
		} else {
			b.AddUndirected(u, v, 0.1)
		}
		*endpoints = append(*endpoints, u, v)
		return true
	}

	dLow := int(cfg.AvgDeg)
	dFrac := cfg.AvgDeg - float64(dLow)

	// growComponent runs preferential attachment over nodes
	// [start, start+size). endpoints holds one entry per edge incidence
	// within the component; sampling from it is sampling proportional to
	// degree (classic Barabási–Albert list trick).
	growComponent := func(start, size int32, endpoints []int32) {
		endpoints = endpoints[:0]
		addEdge(start, start+1, &endpoints)
		for off := int32(2); off < size; off++ {
			t := start + off
			d := dLow
			if r.Bernoulli(dFrac) {
				d++
			}
			if d < 1 {
				d = 1
			}
			if int(off) < d {
				d = int(off)
			}
			attempts := 0
			for added := 0; added < d && attempts < 20*d+40; attempts++ {
				var peer int32
				if r.Bernoulli(cfg.UniformMix) {
					peer = start + r.Int31n(off)
				} else {
					peer = endpoints[r.Intn(len(endpoints))]
				}
				u, v := t, peer
				if cfg.Directed && r.Bernoulli(0.5) {
					u, v = peer, t
				}
				if addEdge(u, v, &endpoints) {
					added++
				}
			}
		}
	}

	// Partition nodes into components: one LWCC-sized block plus many
	// small blocks (size ≥ 2, geometric with mean ~4) mirroring the long
	// tail of small components in real collaboration graphs.
	mainSize := cfg.N
	if cfg.LWCCFrac > 0 && cfg.LWCCFrac < 1 {
		mainSize = int32(float64(cfg.N) * cfg.LWCCFrac)
		if mainSize < 2 {
			mainSize = 2
		}
	}
	scratch := make([]int32, 0, expected)
	growComponent(0, mainSize, scratch)
	for start := mainSize; start < cfg.N; {
		size := int32(2)
		for size < 16 && r.Bernoulli(0.6) { // geometric tail, mean ≈ 3.5 above the minimum
			size++
		}
		if start+size > cfg.N {
			size = cfg.N - start
		}
		if size < 2 {
			// A trailing singleton would be an isolated node, which the
			// paper's datasets do not contain; attach it to the previous
			// component instead.
			addEdge(start, start-1, &scratch)
			break
		}
		growComponent(start, size, scratch)
		start += size
	}

	g, err := b.Build(cfg.Name, cfg.Directed)
	if err != nil {
		return nil, err
	}
	g.ApplyWeightedCascade()
	return g, nil
}

// ErdosRenyi generates a G(n, m)-style random graph with approximately
// avgDeg edges per node and weighted-cascade probabilities. It exists for
// tests and ablations that need a degree-homogeneous contrast to PowerLaw.
func ErdosRenyi(name string, n int32, avgDeg float64, directed bool, seed uint64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: erdos-renyi needs at least 2 nodes, got %d", n)
	}
	if avgDeg <= 0 || avgDeg >= float64(n) {
		return nil, fmt.Errorf("gen: average degree %v outside (0, n)", avgDeg)
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	target := int(float64(n) * avgDeg)
	type edge struct{ u, v int32 }
	seen := make(map[edge]struct{}, target)
	attempts := 0
	for len(seen) < target && attempts < 40*target+100 {
		attempts++
		u := r.Int31n(n)
		v := r.Int31n(n)
		if u == v {
			continue
		}
		e := edge{u, v}
		if !directed && u > v {
			e = edge{v, u}
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		if directed {
			b.AddEdge(u, v, 0.1)
		} else {
			b.AddUndirected(u, v, 0.1)
		}
	}
	g, err := b.Build(name, directed)
	if err != nil {
		return nil, err
	}
	g.ApplyWeightedCascade()
	return g, nil
}

// Star returns a directed star with center 0 pointing at n-1 leaves, each
// edge with probability p. A minimal fixture for spread arithmetic.
func Star(n int32, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v, p)
	}
	return b.MustBuild("star", true)
}

// Line returns a directed path 0→1→…→n-1 with every edge probability p.
func Line(n int32, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(0); v+1 < n; v++ {
		b.AddEdge(v, v+1, p)
	}
	return b.MustBuild("line", true)
}

// Figure1Graph reconstructs the 6-node illustration of the adaptive
// process from the paper's Figure 1. The topology is a faithful
// reconstruction from the narrative (v1 can influence v4 and v6 directly;
// the residual graph after round one contains ⟨v3,v5⟩) with the figure's
// seven probability labels. Node ids map v1..v6 → 0..5.
func Figure1Graph() *graph.Graph {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.1) // v1→v2, the failed attempt
	b.AddEdge(0, 3, 0.6) // v1→v4
	b.AddEdge(0, 5, 0.9) // v1→v6
	b.AddEdge(1, 2, 0.3) // v2→v3
	b.AddEdge(2, 4, 0.4) // v3→v5, the residual thin edge
	b.AddEdge(3, 4, 0.7) // v4→v5
	b.AddEdge(5, 4, 0.5) // v6→v5
	return b.MustBuild("figure1", true)
}

// Figure2Graph reconstructs Example 2.3's 4-node graph exactly: edges
// v1→v2 (0.5), v1→v3 (0.5), v2→v4 (1), v3→v4 (1). With η = 2 the expected
// spread of v1 is 2.75 while its expected truncated spread is 1.75,
// versus 2 for v2 and v3 — the example showing vanilla spread picks the
// wrong seed. Node ids map v1..v4 → 0..3.
func Figure2Graph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	return b.MustBuild("figure2", true)
}
