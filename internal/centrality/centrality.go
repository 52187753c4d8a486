// Package centrality implements the classical node-importance heuristics
// used as cheap seed-selection comparators in the influence-maximization
// literature the paper builds on: PageRank, the degree-discount family
// (Chen, Wang, Yang; KDD 2009), and k-core decomposition.
//
// None of these carry approximation guarantees for (adaptive) seed
// minimization — that contrast is the point: internal/bench's heuristics
// experiment measures how many extra seeds a guarantee-free ranking costs
// relative to ASTI on the same realizations.
package centrality

import (
	"errors"
	"fmt"
	"sort"

	"asti/internal/graph"
	"asti/internal/pq"
)

// PageRankOptions configures PageRank.
type PageRankOptions struct {
	// Damping is the restart parameter α (default 0.85).
	Damping float64
	// Tolerance is the L1 convergence threshold (default 1e-9).
	Tolerance float64
	// MaxIter caps power iterations (default 200).
	MaxIter int
}

func (o *PageRankOptions) fill() error {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("centrality: damping %v outside (0,1)", o.Damping)
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	if o.Tolerance <= 0 {
		return fmt.Errorf("centrality: tolerance %v not positive", o.Tolerance)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.MaxIter < 1 {
		return fmt.Errorf("centrality: max iterations %d < 1", o.MaxIter)
	}
	return nil
}

// PageRank computes the PageRank vector of g by power iteration. Dangling
// mass is redistributed uniformly, so the result sums to 1. The returned
// iteration count is how many sweeps ran before the L1 delta dropped
// below the tolerance (or MaxIter).
func PageRank(g *graph.Graph, opts PageRankOptions) (scores []float64, iters int, err error) {
	if g == nil {
		return nil, 0, errors.New("centrality: nil graph")
	}
	if err := opts.fill(); err != nil {
		return nil, 0, err
	}
	n := int(g.N())
	if n == 0 {
		return nil, 0, errors.New("centrality: empty graph")
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range cur {
		cur[i] = inv
	}
	for iters = 1; iters <= opts.MaxIter; iters++ {
		var dangling float64
		for i := range next {
			next[i] = 0
		}
		for u := int32(0); u < int32(n); u++ {
			deg := g.OutDegree(u)
			if deg == 0 {
				dangling += cur[u]
				continue
			}
			share := opts.Damping * cur[u] / float64(deg)
			for _, v := range g.OutNeighbors(u) {
				next[v] += share
			}
		}
		base := (1-opts.Damping)*inv + opts.Damping*dangling*inv
		var delta float64
		for i := range next {
			next[i] += base
			d := next[i] - cur[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		cur, next = next, cur
		if delta < opts.Tolerance {
			break
		}
	}
	if iters > opts.MaxIter {
		iters = opts.MaxIter
	}
	return cur, iters, nil
}

// Rank returns node ids sorted by descending score, ties broken by id for
// determinism.
func Rank(scores []float64) []int32 {
	order := make([]int32, len(scores))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	})
	return order
}

// DegreeDiscountIC ranks k nodes with the degree-discount heuristic of
// Chen et al. (KDD 2009), designed for the uniform-probability IC model:
// when a neighbor of v is seeded, v's effective degree is discounted by
// 1 + (d_v − 2t_v) · t_v · p, where t_v counts v's seeded in-neighbors.
// p is the assumed uniform propagation probability. mask, if non-nil,
// restricts candidates to nodes where mask(v) is true.
func DegreeDiscountIC(g *graph.Graph, k int, p float64, mask func(int32) bool) ([]int32, error) {
	if g == nil {
		return nil, errors.New("centrality: nil graph")
	}
	if k < 1 {
		return nil, fmt.Errorf("centrality: k %d < 1", k)
	}
	if !(p > 0 && p <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("centrality: probability %v outside (0,1]", p)
	}
	n := g.N()
	q := pq.New(n)
	seededNbrs := make([]int32, n) // t_v
	for v := int32(0); v < n; v++ {
		if mask != nil && !mask(v) {
			continue
		}
		if err := q.Push(v, float64(g.OutDegree(v))); err != nil {
			return nil, err
		}
	}
	var seeds []int32
	for len(seeds) < k {
		u, _, ok := q.Pop()
		if !ok {
			break
		}
		seeds = append(seeds, u)
		for _, v := range g.OutNeighbors(u) {
			if !q.Contains(v) {
				continue
			}
			seededNbrs[v]++
			d := float64(g.OutDegree(v))
			t := float64(seededNbrs[v])
			q.Push(v, d-2*t-(d-t)*t*p)
		}
	}
	if len(seeds) == 0 {
		return nil, errors.New("centrality: no candidates")
	}
	return seeds, nil
}

// SingleDiscount ranks k nodes by out-degree, discounting one unit per
// already-seeded neighbor — the simpler sibling of DegreeDiscountIC that
// works under any model.
func SingleDiscount(g *graph.Graph, k int, mask func(int32) bool) ([]int32, error) {
	if g == nil {
		return nil, errors.New("centrality: nil graph")
	}
	if k < 1 {
		return nil, fmt.Errorf("centrality: k %d < 1", k)
	}
	n := g.N()
	q := pq.New(n)
	for v := int32(0); v < n; v++ {
		if mask != nil && !mask(v) {
			continue
		}
		if err := q.Push(v, float64(g.OutDegree(v))); err != nil {
			return nil, err
		}
	}
	var seeds []int32
	for len(seeds) < k {
		u, _, ok := q.Pop()
		if !ok {
			break
		}
		seeds = append(seeds, u)
		for _, v := range g.OutNeighbors(u) {
			if cur, ok := q.Priority(v); ok {
				q.Push(v, cur-1)
			}
		}
	}
	if len(seeds) == 0 {
		return nil, errors.New("centrality: no candidates")
	}
	return seeds, nil
}

// KCore computes the core number of every node using total (in+out)
// degree, via the standard peeling order in O(m + n) with bucket sort.
func KCore(g *graph.Graph) ([]int32, error) {
	if g == nil {
		return nil, errors.New("centrality: nil graph")
	}
	n := int(g.N())
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(int32(v)) + g.InDegree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int32, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for i := int32(1); i < int32(len(binStart)); i++ {
		binStart[i] += binStart[i-1]
	}
	order := make([]int32, n) // nodes sorted by current degree
	posOf := make([]int32, n) // node -> position in order
	fill := append([]int32(nil), binStart...)
	for v := 0; v < n; v++ {
		p := fill[deg[v]]
		order[p] = int32(v)
		posOf[v] = p
		fill[deg[v]]++
	}
	core := make([]int32, n)
	cur := append([]int32(nil), deg...)
	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		v := order[i]
		core[v] = cur[v]
		removed[v] = true
		decr := func(u int32) {
			if removed[u] || cur[u] <= cur[v] {
				return
			}
			// Swap u to the front of its bucket, then shrink its degree.
			du := cur[u]
			pu := posOf[u]
			pw := binStart[du]
			w := order[pw]
			if u != w {
				order[pu], order[pw] = w, u
				posOf[u], posOf[w] = pw, pu
			}
			binStart[du]++
			cur[u]--
		}
		for _, u := range g.OutNeighbors(v) {
			decr(u)
		}
		for _, e := range g.InEdges(v) {
			decr(e.Src)
		}
	}
	return core, nil
}

// Degeneracy returns the maximum core number (the graph's degeneracy).
func Degeneracy(core []int32) int32 {
	var d int32
	for _, c := range core {
		if c > d {
			d = c
		}
	}
	return d
}
