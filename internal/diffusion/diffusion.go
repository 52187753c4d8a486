// Package diffusion implements the influence-propagation models from the
// paper: independent cascade (IC) and linear threshold (LT), both in their
// live-edge formulation (Kempe et al. 2003; paper §2.1).
//
// Two distinct sources of randomness appear in adaptive seed minimization
// and this package keeps them strictly separate:
//
//   - Realization: ONE fully materialized world φ — every edge's
//     live/blocked status (IC) or every node's chosen in-edge (LT) is
//     fixed. The adaptive policy is executed against a Realization and
//     observes reachability in it; the paper evaluates every algorithm on
//     the same 20 pre-sampled realizations (§6).
//   - Simulator: fresh coin flips per run, used for Monte-Carlo estimation
//     of expected (truncated) spread.
package diffusion

import (
	"fmt"
	"strings"

	"asti/internal/bitset"
	"asti/internal/graph"
	"asti/internal/rng"
)

// Model selects the propagation model.
type Model int

const (
	// IC is the independent cascade model: each edge ⟨u,v⟩ is live
	// independently with probability p(u,v).
	IC Model = iota
	// LT is the linear threshold model in live-edge form: each node picks
	// at most one incoming edge, edge ⟨u,v⟩ with probability p(u,v)
	// (weights into v must sum to at most 1).
	LT
)

// String returns "IC" or "LT".
func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel maps a wire name back to its Model, the inverse of String:
// case-insensitive, with "" meaning IC (Model's zero value).
func ParseModel(name string) (Model, error) {
	switch strings.ToUpper(name) {
	case "", "IC":
		return IC, nil
	case "LT":
		return LT, nil
	default:
		return 0, fmt.Errorf("unknown model %q (IC or LT)", name)
	}
}

// Valid reports whether m is a known model.
func (m Model) Valid() bool { return m == IC || m == LT }

// ValidateLT checks the LT weight constraint: for every node the incoming
// probabilities must sum to at most 1 (+tiny float tolerance).
func ValidateLT(g *graph.Graph) error {
	const tol = 1e-6
	for v := int32(0); v < g.N(); v++ {
		var sum float64
		for _, e := range g.InEdges(v) {
			sum += float64(e.P)
		}
		if sum > 1+tol {
			return fmt.Errorf("diffusion: LT weights into node %d sum to %v > 1", v, sum)
		}
	}
	return nil
}

// Realization is one fully materialized world φ of the probabilistic graph:
// a sample from the live-edge distribution of the model. It is immutable
// after sampling and safe for concurrent reads.
type Realization struct {
	g     *graph.Graph
	model Model

	// IC: liveOut[outEdgeID] — whether the directed edge is live.
	liveOut *bitset.Set
	// LT: chosenIn[v] — local index into v's in-adjacency of the single
	// live incoming edge, or -1 when v picked none.
	chosenIn []int32
}

// SampleRealization draws one world φ from the live-edge distribution.
func SampleRealization(g *graph.Graph, model Model, r *rng.Source) *Realization {
	φ := &Realization{g: g, model: model}
	switch model {
	case IC:
		φ.liveOut = bitset.New(int(g.M()))
		var eid int64
		for u := int32(0); u < g.N(); u++ {
			probs := g.OutProbs(u)
			for i := range probs {
				if r.Bernoulli(float64(probs[i])) {
					φ.liveOut.Set(int32(eid + int64(i)))
				}
			}
			eid += int64(len(probs))
		}
	case LT:
		φ.chosenIn = make([]int32, g.N())
		for v := int32(0); v < g.N(); v++ {
			φ.chosenIn[v] = sampleChosenIn(g, v, r)
		}
	default:
		panic("diffusion: unknown model")
	}
	return φ
}

// sampleChosenIn picks at most one incoming edge of v: local in-edge i with
// probability p_i, none with probability 1-Σp_i. Returns the local index
// or -1.
func sampleChosenIn(g *graph.Graph, v int32, r *rng.Source) int32 {
	in := g.InEdges(v)
	if len(in) == 0 {
		return -1
	}
	x := r.Float64()
	var acc float64
	for i, e := range in {
		acc += float64(e.P)
		if x < acc {
			return int32(i)
		}
	}
	return -1
}

// Graph returns the graph the realization was sampled from.
func (φ *Realization) Graph() *graph.Graph { return φ.g }

// Model returns the propagation model of the realization.
func (φ *Realization) Model() Model { return φ.model }

// LiveOut reports whether the IC out-edge with dense id eid is live.
// Panics for LT realizations.
func (φ *Realization) LiveOut(eid int64) bool { return φ.liveOut.Get(int32(eid)) }

// ChosenIn returns the local in-edge index chosen by v (LT), or -1.
// Panics for IC realizations.
func (φ *Realization) ChosenIn(v int32) int32 { return φ.chosenIn[v] }

// edgeLive reports whether u activates its out-neighbor v (at local
// out-index i of u) in this world.
func (φ *Realization) edgeLive(u int32, i int, v int32) bool {
	switch φ.model {
	case IC:
		return φ.liveOut.Get(int32(φ.g.OutOffset(u) + int64(i)))
	default: // LT
		ci := φ.chosenIn[v]
		return ci >= 0 && φ.g.InEdges(v)[ci].Src == u
	}
}

// Spread performs the forward propagation from seeds in this world,
// restricted to nodes NOT set in active (the residual graph); a nil active
// means the whole graph. It returns the newly activated nodes (including
// the seeds themselves, excluding any seed already active). The active set
// is not modified; callers commit the observation explicitly.
func (φ *Realization) Spread(seeds []int32, active *bitset.Set) []int32 {
	visited := bitset.New(int(φ.g.N()))
	var out, queue []int32
	for _, s := range seeds {
		if active != nil && active.Get(s) {
			continue
		}
		if !visited.TestAndSet(s) {
			queue = append(queue, s)
			out = append(out, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		adj := φ.g.OutNeighbors(u)
		for i, v := range adj {
			if visited.Get(v) || (active != nil && active.Get(v)) {
				continue
			}
			if φ.edgeLive(u, i, v) {
				visited.Set(v)
				queue = append(queue, v)
				out = append(out, v)
			}
		}
	}
	return out
}

// SpreadSize returns len(Spread(seeds, active)) without retaining the list.
func (φ *Realization) SpreadSize(seeds []int32, active *bitset.Set) int {
	return len(φ.Spread(seeds, active))
}
