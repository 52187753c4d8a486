// Package estimator provides reference estimators for expected spread and
// expected truncated spread: Monte-Carlo estimation for realistic graphs
// and exact expectation by exhaustive realization enumeration for tiny
// graphs. The exact forms are the test oracles behind Theorem 3.3,
// Example 2.3 and the RR-set bias analysis in §3.2.
package estimator

import (
	"fmt"
	"math"

	"asti/internal/bitset"
	"asti/internal/diffusion"
	"asti/internal/graph"
	"asti/internal/rng"
)

// MCSpread estimates E[I(S | active)] — the expected marginal spread of
// seeds in the residual graph — by averaging `samples` fresh forward
// simulations.
func MCSpread(g *graph.Graph, model diffusion.Model, seeds []int32, active *bitset.Set, samples int, r *rng.Source) float64 {
	sim := diffusion.NewSimulator(g, model)
	var total float64
	for i := 0; i < samples; i++ {
		total += float64(sim.Spread(seeds, active, r))
	}
	return total / float64(samples)
}

// MCTruncated estimates E[Γ(S | active)] = E[min{I(S | active), eta}].
func MCTruncated(g *graph.Graph, model diffusion.Model, seeds []int32, active *bitset.Set, eta int64, samples int, r *rng.Source) float64 {
	sim := diffusion.NewSimulator(g, model)
	var total float64
	for i := 0; i < samples; i++ {
		s := int64(sim.Spread(seeds, active, r))
		if s > eta {
			s = eta
		}
		total += float64(s)
	}
	return total / float64(samples)
}

// maxExactEdges bounds exhaustive IC enumeration (2^m realizations).
const maxExactEdges = 22

// ExactIC enumerates all 2^m live-edge realizations of an IC graph and
// returns fn-weighted expectation, where fn maps the realized spread
// (number of nodes reachable from seeds) to a value. It is the common
// core of the exact oracles below.
func ExactIC(g *graph.Graph, seeds []int32, fn func(spread int) float64) (float64, error) {
	m := g.M()
	if m > maxExactEdges {
		return 0, fmt.Errorf("estimator: exact IC enumeration supports at most %d edges, graph has %d", maxExactEdges, m)
	}
	// Collect edges in dense out-edge order with probabilities.
	type edge struct {
		u, v int32
		p    float64
	}
	edges := make([]edge, 0, m)
	for u := int32(0); u < g.N(); u++ {
		adj := g.OutNeighbors(u)
		probs := g.OutProbs(u)
		for i, v := range adj {
			edges = append(edges, edge{u, v, float64(probs[i])})
		}
	}
	n := int(g.N())
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	// adjacency under a mask, rebuilt per realization: for tiny graphs a
	// direct scan over the edge list inside BFS is simplest and fast
	// enough.
	var expect float64
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		p := 1.0
		for i, e := range edges {
			if mask&(1<<uint(i)) != 0 {
				p *= e.p
			} else {
				p *= 1 - e.p
			}
		}
		if p == 0 {
			continue
		}
		for i := range visited {
			visited[i] = false
		}
		queue = queue[:0]
		for _, s := range seeds {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, s)
			}
		}
		count := len(queue)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for i, e := range edges {
				if e.u != u || mask&(1<<uint(i)) == 0 || visited[e.v] {
					continue
				}
				visited[e.v] = true
				queue = append(queue, e.v)
				count++
			}
		}
		expect += p * fn(count)
	}
	return expect, nil
}

// ExactSpreadIC returns E[I(S)] by exhaustive enumeration.
func ExactSpreadIC(g *graph.Graph, seeds []int32) (float64, error) {
	return ExactIC(g, seeds, func(s int) float64 { return float64(s) })
}

// ExactTruncatedIC returns E[Γ(S)] = E[min{I(S), eta}] by exhaustive
// enumeration.
func ExactTruncatedIC(g *graph.Graph, seeds []int32, eta int64) (float64, error) {
	return ExactIC(g, seeds, func(s int) float64 {
		return math.Min(float64(s), float64(eta))
	})
}

// ExactMRRTruncatedIC returns the exact expectation E[Γ̃(S)] of the
// paper's binary mRR estimator: η · Pr[S ∩ R ≠ ∅] over both the random
// realization and the randomized-rounding root set K. S intersects R
// exactly when K hits the forward-reachable set of S, so for realized
// spread x the hit probability is 1 − E_k[C(n−x,k)/C(n,k)] — the p(x)
// appearing in the proof of Theorem 3.3.
func ExactMRRTruncatedIC(g *graph.Graph, seeds []int32, eta int64) (float64, error) {
	n := int64(g.N())
	kLow := n / eta
	frac := float64(n)/float64(eta) - float64(kLow)
	return ExactIC(g, seeds, func(spread int) float64 {
		x := int64(spread)
		missLow := hypergeomMiss(n, x, kLow)
		missHigh := hypergeomMiss(n, x, kLow+1)
		pMiss := (1-frac)*missLow + frac*missHigh
		return float64(eta) * (1 - pMiss)
	})
}

// hypergeomMiss returns C(n-x, k)/C(n, k): the probability that a uniform
// size-k subset of n nodes avoids a fixed set of x nodes.
func hypergeomMiss(n, x, k int64) float64 {
	if k > n-x {
		return 0
	}
	p := 1.0
	for i := int64(0); i < k; i++ {
		p *= float64(n-x-i) / float64(n-i)
	}
	return p
}

// ExactLT enumerates all chosen-in-edge assignments of an LT graph (each
// node independently picks one incoming edge with its probability, or
// none with the remaining mass) and returns the fn-weighted expectation.
// The number of realizations is Π(indeg_v + 1); callers should keep the
// graph tiny.
func ExactLT(g *graph.Graph, seeds []int32, fn func(spread int) float64) (float64, error) {
	n := int(g.N())
	total := 1.0
	for v := int32(0); v < g.N(); v++ {
		total *= float64(g.InDegree(v) + 1)
		if total > 4e6 {
			return 0, fmt.Errorf("estimator: exact LT enumeration too large (>4e6 realizations)")
		}
	}
	choice := make([]int32, n) // -1 = none, else local in-edge index
	visited := make([]bool, n)
	queue := make([]int32, 0, n)

	var expect float64
	var recurse func(v int32, p float64)
	evaluate := func(p float64) {
		for i := range visited {
			visited[i] = false
		}
		queue = queue[:0]
		for _, s := range seeds {
			if !visited[s] {
				visited[s] = true
				queue = append(queue, s)
			}
		}
		count := len(queue)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, w := range g.OutNeighbors(u) {
				if visited[w] {
					continue
				}
				ci := choice[w]
				if ci >= 0 && g.InEdges(w)[ci].Src == u {
					visited[w] = true
					queue = append(queue, w)
					count++
				}
			}
		}
		expect += p * fn(count)
	}
	recurse = func(v int32, p float64) {
		if p == 0 {
			return
		}
		if v == int32(n) {
			evaluate(p)
			return
		}
		rem := 1.0
		for i, e := range g.InEdges(v) {
			choice[v] = int32(i)
			rem -= float64(e.P)
			recurse(v+1, p*float64(e.P))
		}
		choice[v] = -1
		if rem < 0 {
			rem = 0
		}
		recurse(v+1, p*rem)
	}
	recurse(0, 1)
	return expect, nil
}

// ExactSpreadLT returns E[I(S)] under LT by exhaustive enumeration.
func ExactSpreadLT(g *graph.Graph, seeds []int32) (float64, error) {
	return ExactLT(g, seeds, func(s int) float64 { return float64(s) })
}

// ExactTruncatedLT returns E[min{I(S), eta}] under LT by exhaustive
// enumeration.
func ExactTruncatedLT(g *graph.Graph, seeds []int32, eta int64) (float64, error) {
	return ExactLT(g, seeds, func(s int) float64 {
		return math.Min(float64(s), float64(eta))
	})
}
