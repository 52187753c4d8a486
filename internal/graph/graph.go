// Package graph provides the probabilistic social-network substrate used by
// every algorithm in this repository.
//
// A Graph is an immutable directed graph in compressed sparse row (CSR)
// form, with both out-adjacency (for forward influence simulation) and
// in-adjacency (for reverse-reachable-set sampling). Each directed edge
// ⟨u,v⟩ carries a propagation probability p(u,v) ∈ (0,1], stored once in
// each layout: beside the target in the out-CSR, and inside the 8-byte
// InEdge record in the in-CSR.
//
// Undirected inputs are materialized as two directed edges, matching the
// paper's protocol ("an undirected edge is transformed into two directed
// edges", §6.1); Directed() records the source convention for reporting.
package graph

import "fmt"

// Graph is an immutable directed probabilistic graph in CSR form.
// Construct with a Builder or one of the generators in internal/gen.
type Graph struct {
	name     string
	directed bool

	n int32
	m int64 // directed edge count

	outOff  []int64
	outAdj  []int32
	outProb []float32

	// In-adjacency: inEdge[inOff[v]:inOff[v+1]] is v's in-block, each
	// record packing the source endpoint and p(u,v) into 8 bytes, so the
	// sampler's reverse BFS walks a single sequential stream.
	inOff  []int64
	inEdge []InEdge
}

// InEdge is one incoming edge: source endpoint and propagation
// probability packed into a single 8-byte record (one cache-line stream
// for the sampling hot loop).
type InEdge struct {
	Src int32
	P   float32
}

// N returns the number of nodes.
func (g *Graph) N() int32 { return g.n }

// M returns the number of directed edges stored. For graphs built from an
// undirected source this is twice the undirected edge count.
func (g *Graph) M() int64 { return g.m }

// Name returns the label the graph was built with (dataset name).
func (g *Graph) Name() string { return g.name }

// Directed reports the source convention: false means the graph was built
// from an undirected edge list (each edge stored in both directions).
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the number of outgoing edges of u.
func (g *Graph) OutDegree(u int32) int32 {
	return int32(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v int32) int32 {
	return int32(g.inOff[v+1] - g.inOff[v])
}

// OutNeighbors returns the targets of u's outgoing edges. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(u int32) []int32 {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// OutProbs returns the probabilities aligned with OutNeighbors(u).
func (g *Graph) OutProbs(u int32) []float32 {
	return g.outProb[g.outOff[u]:g.outOff[u+1]]
}

// InEdges returns v's incoming edges as {Src, P} records. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) InEdges(v int32) []InEdge {
	return g.inEdge[g.inOff[v]:g.inOff[v+1]]
}

// FusedIn exposes the whole in-adjacency at once: off[v]..off[v+1]
// bounds node v's InEdge block in edges. Sampling kernels hold these two
// headers directly so the per-node block lookup costs two offset loads,
// with no detour through the Graph struct.
// Both slices alias internal storage and must not be modified.
func (g *Graph) FusedIn() (off []int64, edges []InEdge) { return g.inOff, g.inEdge }

// OutOffset returns the global index of u's first outgoing edge in the
// out-adjacency layout (dense out-edge ids for IC realizations).
func (g *Graph) OutOffset(u int32) int64 { return g.outOff[u] }

// ApplyWeightedCascade overwrites every edge probability with the weighted
// cascade convention p(u,v) = 1/indeg(v) used throughout the paper's
// evaluation (§6.1). Nodes with in-degree zero have no incoming edges, so
// no division by zero can occur.
func (g *Graph) ApplyWeightedCascade() {
	for v := int32(0); v < g.n; v++ {
		d := g.InDegree(v)
		if d == 0 {
			continue
		}
		p := float32(1.0 / float64(d))
		for i := g.inOff[v]; i < g.inOff[v+1]; i++ {
			g.inEdge[i].P = p
		}
	}
	// Mirror onto the out-aligned copy.
	for u := int32(0); u < g.n; u++ {
		adj := g.OutNeighbors(u)
		probs := g.OutProbs(u)
		for i, v := range adj {
			probs[i] = float32(1.0 / float64(g.InDegree(v)))
		}
	}
}

// ApplyUniformProb overwrites every edge probability with p.
func (g *Graph) ApplyUniformProb(p float64) error {
	if !validProb(p) {
		return fmt.Errorf("graph: uniform probability %v outside (0,1] as a float32", p)
	}
	fp := float32(p)
	for i := range g.inEdge {
		g.inEdge[i].P = fp
	}
	for i := range g.outProb {
		g.outProb[i] = fp
	}
	return nil
}

// FindOutEdge returns the dense out-edge id of ⟨u,v⟩ and true if present.
func (g *Graph) FindOutEdge(u, v int32) (int64, bool) {
	for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
		if g.outAdj[i] == v {
			return i, true
		}
	}
	return 0, false
}

// EdgeProb returns p(u,v), or 0 if the edge does not exist.
func (g *Graph) EdgeProb(u, v int32) float64 {
	if i, ok := g.FindOutEdge(u, v); ok {
		return float64(g.outProb[i])
	}
	return 0
}
