package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph.
//
// Builders reject self-loops and out-of-range endpoints eagerly, and
// de-duplicate parallel edges at Build time (first probability wins); both
// conditions indicate corrupted input in this domain, so duplicates are
// also surfaced through Dups for callers that want to hard-fail.
type Builder struct {
	n    int32
	us   []int32
	vs   []int32
	ps   []float32
	dups int
	err  error
}

// NewBuilder returns a Builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int32) *Builder {
	b := &Builder{n: n}
	if n <= 0 {
		b.err = fmt.Errorf("graph: node count %d must be positive", n)
	}
	return b
}

// AddEdge records the directed edge ⟨u,v⟩ with propagation probability p.
// The first error encountered is sticky and reported by Build.
func (b *Builder) AddEdge(u, v int32, p float64) {
	if b.err != nil {
		return
	}
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		b.err = fmt.Errorf("graph: edge ⟨%d,%d⟩ endpoint out of range [0,%d)", u, v, b.n)
	case u == v:
		b.err = fmt.Errorf("graph: self-loop at node %d", u)
	case !validProb(p):
		b.err = fmt.Errorf("graph: edge ⟨%d,%d⟩ probability %v outside (0,1] as a float32", u, v, p)
	default:
		b.us = append(b.us, u)
		b.vs = append(b.vs, v)
		b.ps = append(b.ps, float32(p))
	}
}

// validProb reports whether p is an edge probability in (0,1] that stays
// positive when stored as a float32: NaN fails every comparison, and a p
// below float32's range would be stored as 0.
func validProb(p float64) bool { return float32(p) > 0 && p <= 1 }

// AddUndirected records the edge in both directions with probability p.
func (b *Builder) AddUndirected(u, v int32, p float64) {
	b.AddEdge(u, v, p)
	b.AddEdge(v, u, p)
}

// Dups returns the number of duplicate edges dropped by the last Build.
func (b *Builder) Dups() int { return b.dups }

// Build finalizes the graph. name labels the dataset; directed records the
// source convention (false when edges were added via AddUndirected).
func (b *Builder) Build(name string, directed bool) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	m := len(b.us)
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	// Sort edges by (u, v) to build the out-CSR and detect duplicates.
	sort.Slice(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if b.us[a] != b.us[c] {
			return b.us[a] < b.us[c]
		}
		return b.vs[a] < b.vs[c]
	})

	g := &Graph{name: name, directed: directed, n: b.n}
	g.outOff = make([]int64, b.n+1)
	g.outAdj = make([]int32, 0, m)
	g.outProb = make([]float32, 0, m)

	var prevU, prevV int32 = -1, -1
	b.dups = 0
	for _, e := range order {
		u, v, p := b.us[e], b.vs[e], b.ps[e]
		if u == prevU && v == prevV {
			b.dups++
			continue
		}
		prevU, prevV = u, v
		g.outAdj = append(g.outAdj, v)
		g.outProb = append(g.outProb, p)
		g.outOff[u+1]++
	}
	for i := int32(0); i < b.n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	g.m = int64(len(g.outAdj))

	// Build the in-CSR with a counting pass over the deduplicated edges.
	g.inOff = make([]int64, b.n+1)
	for _, v := range g.outAdj {
		g.inOff[v+1]++
	}
	for i := int32(0); i < b.n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inEdge = make([]InEdge, g.m)
	cursor := make([]int64, b.n)
	for u := int32(0); u < b.n; u++ {
		for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
			v := g.outAdj[i]
			slot := g.inOff[v] + cursor[v]
			cursor[v]++
			g.inEdge[slot] = InEdge{Src: u, P: g.outProb[i]}
		}
	}
	return g, nil
}

// MustBuild is Build for handcrafted fixtures that cannot fail.
func (b *Builder) MustBuild(name string, directed bool) *Graph {
	g, err := b.Build(name, directed)
	if err != nil {
		panic(err)
	}
	return g
}
